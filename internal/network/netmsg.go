// Package network implements a cycle-accurate simulator of the
// packet-switched multistage interconnection network of Section 4: an
// Omega (shuffle-exchange) network of 2×2 combining switches connecting N
// processors to N interleaved memory modules.
//
// The simulator realizes the paper's assumptions directly:
//
//   - packet switching, with bounded FIFO output queues per switch port;
//   - non-overtaking links (queues preserve order);
//   - replies retrace the request path in reverse, using a path header the
//     request builds as it ascends (Section 4.1);
//   - combining at switch output queues, with a bounded wait buffer per
//     switch (partial combining when full — always correct, Section 7).
//
// Messages do not travel by value.  Every request owns one slot of a
// message slab from injection until its reply is delivered: the request,
// its k-byte path header, its metric tags and, on the way back, its reply.
// Queues, wait-buffer records and the memory-side metadata carry 4-byte
// handles to those slots, so a hop moves a handle and a combine parks one.
//
// It is the instrument for the hot-spot experiments (E8, E9, A1): the
// phenomena of Pfister & Norton [20] — bandwidth collapse toward the
// single-module limit and tree saturation delaying even non-hot traffic —
// emerge from the queueing model, and combining removes them.
package network

import (
	"combining/internal/core"
	"combining/internal/word"
)

// handle names one request's slot in the message slab.
type handle int32

// msg is one slab slot: a request and everything that routes it and its
// reply.  A combine rewrites the first request's slot to carry the combined
// request and leaves the second's untouched in the wait buffer; decombining
// writes each constituent's reply into its own slot.
type msg struct {
	req core.Request
	rep core.Reply
	// issue timestamps injection and hot marks hot-spot traffic, for the
	// per-class latency metrics.
	issue int64
	hot   bool
}

// route is the part of a slot every hop reads, kept in a dense array of its
// own so that a hop which neither combines nor decombines never touches the
// slot: the address and home module route the request and prefilter the
// combine scan, and the value-slot counts feed the traffic accounting of
// E11.
type route struct {
	addr  word.Addr
	dst   int32 // home memory module
	fvals uint8 // value slots the request carries
	rvals uint8 // value slots the reply carries (0 for a bare store ack)
}

// slab owns every in-flight request's slot, route and path header.  Slots
// are taken only by injection, which runs serially, so the backing arrays
// never move while a parallel phase runs; frees made inside a parallel
// phase go to the worker's shard and join the free list when the cycle's
// shards merge.
type slab struct {
	msgs   []msg
	routes []route
	// paths holds k bytes per slot: paths[h·k+s] is the switch input port
	// the request used at stage s, written as it ascends and read as its
	// reply descends.
	paths []uint8
	k     int
	free  []handle
	// reqOf projects a queued handle to its request for the shared combine
	// scan; bound once so the scan builds no closure per call.
	reqOf func(*handle) *core.Request
}

func newSlab(k int) *slab {
	sl := &slab{k: k}
	sl.reqOf = func(h *handle) *core.Request { return &sl.msgs[*h].req }
	return sl
}

// get takes a free slot, growing the slab when none is left.
func (sl *slab) get() handle {
	if n := len(sl.free); n > 0 {
		h := sl.free[n-1]
		sl.free = sl.free[:n-1]
		return h
	}
	sl.msgs = append(sl.msgs, msg{})
	sl.routes = append(sl.routes, route{})
	sl.paths = append(sl.paths, make([]uint8, sl.k)...)
	return handle(len(sl.msgs) - 1)
}

// clear drops a slot's request and reply, so a freed slot keeps nothing
// reachable.
func (sl *slab) clear(h handle) { sl.msgs[h] = msg{} }

// put frees a slot straight onto the free list (serial code only).
func (sl *slab) put(h handle) {
	sl.clear(h)
	sl.free = append(sl.free, h)
}

// live counts the slots in use.
func (sl *slab) live() int { return len(sl.msgs) - len(sl.free) }

// port returns the path-header entry of slot h at stage s.
func (sl *slab) port(h handle, s int) *uint8 { return &sl.paths[int(h)*sl.k+s] }

// netRecord extends the core wait-buffer record with the reply routing
// state the network needs: the slot of the request serialized second, whose
// path header routes the reply synthesized for it, whose tags feed the
// metrics, and whose request names what a crash flushing the record lost.
type netRecord struct {
	core.Record
	second handle
	// needs1 and needs2 record whether each constituent's reply carries
	// a value, for traffic accounting.
	needs1, needs2 bool
}
