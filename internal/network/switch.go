package network

import (
	"combining/internal/core"
	"combining/internal/rmw"
	"combining/internal/word"
)

// column is one stage of k×k combining switches.  Forward traffic enters a
// switch on its input ports and leaves through one output FIFO per port;
// combining happens when an arriving request finds a queued request for
// the same address in its output queue.  Reverse traffic (replies) enters
// from the memory side, is decombined against the switch's wait buffer,
// and leaves through one reverse FIFO per input port toward the
// processors.
//
// The column is laid out for the sweeps, which visit every switch of a
// stage each cycle: the per-switch state lives by value in sw; the queue
// headers live in outQ and revQ, indexed switch·radix + port, each header's
// backing carved from one per-stage handle array; and nOut and nRev count
// each switch's queued forward and reverse messages, so a sweep passes
// over an idle switch reading one dense counter.
type column struct {
	sw         []switchNode
	outQ, revQ [][]handle
	nOut, nRev []int32

	stage, radix int
	slab         *slab
	pol          core.Policy
	outCap       int // forward queue capacity; <= 0 means unbounded
	revCap       int // reverse base credit per port; <= 0 means unbounded
	// buggyForward enables the incorrect early-reply optimization of
	// Section 5.1 (Config.BuggyLoadForwarding).
	buggyForward bool
	// trace, when non-nil, observes combine/decombine/reject events;
	// now supplies the current cycle for event timestamps.
	trace func(Event)
	now   func() int64
}

// switchNode is the state of one switch beyond its queues.
type switchNode struct {
	wait core.WaitBuffer[netRecord]
	// maxRev is the reverse-queue high-water mark across this switch's
	// ports — the observable the bounded-fan-out invariant is asserted on.
	maxRev int
	// CombinedHere counts requests absorbed by combining at this switch.
	CombinedHere int64
}

// newColumn builds stage's width switches from the normalized config.
func newColumn(stage, width int, cfg *Config, sl *slab) column {
	c := column{
		sw:           make([]switchNode, width),
		outQ:         carveQueues(width*cfg.Radix, cfg.QueueCap),
		revQ:         carveQueues(width*cfg.Radix, 2*cfg.RevQueueCap),
		nOut:         make([]int32, width),
		nRev:         make([]int32, width),
		stage:        stage,
		radix:        cfg.Radix,
		slab:         sl,
		pol:          core.Policy{AllowReversal: cfg.AllowReversal},
		outCap:       cfg.QueueCap,
		revCap:       cfg.RevQueueCap,
		buggyForward: cfg.BuggyLoadForwarding,
		trace:        cfg.Trace,
	}
	for i := range c.sw {
		c.sw[i].wait = *core.NewWaitBuffer[netRecord](cfg.WaitBufCap)
	}
	return c
}

// carveQueues returns n empty queues whose backing arrays are consecutive
// windows of one allocation, each with room for per handles (4 when the
// queue is unbounded).  A queue that outgrows its window moves to its own
// array on append and keeps it, so neighbours never overlap.
func carveQueues(n, per int) [][]handle {
	if per <= 0 {
		per = 4
	}
	buf := make([]handle, n*per)
	qs := make([][]handle, n)
	for i := range qs {
		qs[i] = buf[i*per : i*per : (i+1)*per]
	}
	return qs
}

// ports returns switch idx's forward (or reverse) queues.
func (c *column) ports(qs [][]handle, idx int) [][]handle {
	return qs[idx*c.radix : (idx+1)*c.radix]
}

// tryAccept routes the request in slot h into switch idx's output queue
// for outPort, stamping the input port into its path header.  It first
// attempts to combine with a queued request to the same address; failing
// that it appends to the queue if space remains.  It reports false when
// the message cannot be accepted this cycle (the upstream holds it).
func (c *column) tryAccept(idx int, h handle, outPort int, inPort uint8, st *Stats) bool {
	sl := c.slab
	*sl.port(h, c.stage) = inPort
	q := &c.outQ[idx*c.radix+outPort]
	if c.buggyForward && c.forwardLoad(idx, h, *q) {
		return true
	}
	if c.combine(idx, h, *q, st) {
		return true
	}
	if c.outCap > 0 && len(*q) >= c.outCap {
		return false
	}
	*q = append(*q, h)
	c.nOut[idx]++
	if n := len(*q); n > st.MaxOutQueue {
		st.MaxOutQueue = n
	}
	return true
}

// forwardLoad is the incorrect optimization of Config.BuggyLoadForwarding:
// a load meeting a queued store to its address is answered NOW with the
// store's value, while the store is still on its way to memory.  The
// synthesized reply descends from this switch along the load's path.
func (c *column) forwardLoad(idx int, h handle, q []handle) bool {
	sl := c.slab
	m := &sl.msgs[h]
	if _, isLoad := m.req.Op.(rmw.Load); !isLoad {
		return false
	}
	for _, qh := range q {
		queued := &sl.msgs[qh].req
		if store, isConst := queued.Op.(rmw.Const); isConst && queued.Addr == m.req.Addr {
			m.rep = core.Reply{ID: m.req.ID, Val: word.W(store.V)}
			sl.routes[h].rvals = 1
			c.acceptReply(idx, h)
			return true
		}
	}
	return false
}

// combine tries to merge the request in slot h into queue q of switch idx.
// Only the LAST queued request for the address is a legal combining partner
// (M2.3) — the scan shared with the other engines via core.CombineAtTail,
// run only when the dense routes show a queued request to the same
// address.  On success the slot serialized first stays queued carrying the
// combined request, and the other is parked in the wait-buffer record until
// the reply splits.
func (c *column) combine(idx int, h handle, q []handle, st *Stats) bool {
	sl := c.slab
	addr := sl.routes[h].addr
	partner := false
	for _, qh := range q {
		if sl.routes[qh].addr == addr {
			partner = true
			break
		}
	}
	if !partner {
		return false
	}
	sw := &c.sw[idx]
	m := &sl.msgs[h]
	tc, rejected, ok := core.CombineAtTail(q, sl.reqOf, m.req, c.pol, sw.wait.CanPush)
	if rejected {
		// A full wait buffer forfeits the combine; count the missed
		// opportunity for the partial-combining ablation.
		sw.wait.Rejections++
		if c.trace != nil {
			c.trace(Event{Cycle: c.now(), Kind: EvCombineReject,
				ID: m.req.ID, Addr: addr, Stage: c.stage, Switch: idx})
		}
	}
	if !ok {
		return false
	}
	queued := &q[tc.Index]
	first, second := *queued, h
	if tc.Swapped {
		first, second = h, *queued
	}
	nr := netRecord{
		Record: tc.Rec,
		second: second,
		needs1: rmw.NeedsValue(sl.msgs[first].req.Op),
		needs2: rmw.NeedsValue(sl.msgs[second].req.Op),
	}
	if !sw.wait.Push(tc.Rec.ID1, nr) {
		return false // full despite CanPush — cannot happen single-threaded
	}
	sl.msgs[first].req = tc.Combined
	sl.routes[first].fvals = uint8(core.ValueSlots(tc.Combined.Op))
	*queued = first
	sw.CombinedHere++
	st.Combines++
	if c.trace != nil {
		c.trace(Event{Cycle: c.now(), Kind: EvCombine,
			ID: tc.Rec.ID1, ID2: tc.Rec.ID2, Addr: addr, Stage: c.stage, Switch: idx})
	}
	return true
}

// canAcceptReply is the reserved-credit acceptance check: a reply may enter
// switch idx only while every reverse queue sits below the base credit
// revCap.  The check must cover all ports because the reply's decombining
// fan-out is unknown until the wait buffer is consulted — a combined reply
// can scatter leaves across every port.  An accepted reply then appends its
// entire fan-out unconditionally: each leaf beyond the first consumes a wait
// record this switch itself created, so the records double as reserved
// reverse credits and per-port occupancy stays ≤ revCap + wait-buffer
// capacity (the invariant TestReverseBound asserts).  Holding a reply
// upstream when the check fails cannot deadlock: reverse queues drain
// toward the processors, whose delivery ports always consume.
func (c *column) canAcceptReply(idx int) bool {
	if c.revCap <= 0 || int(c.nRev[idx]) < c.revCap {
		return true // no port can be at the credit limit
	}
	for _, q := range c.ports(c.revQ, idx) {
		if len(q) >= c.revCap {
			return false
		}
	}
	return true
}

// acceptReply processes the reply in slot h arriving at switch idx from the
// memory side: it reads this stage's port from the path header, undoes
// every combine recorded here for the id (LIFO, possibly several for k-way
// combining), and places the resulting replies in the reverse queues.  The
// decombining fan-out restores exactly the messages combining removed, so
// total reverse traffic never exceeds the uncombined load — recorded as the
// maxRev high-water mark and asserted in invariant_test.go; admission is
// gated by canAcceptReply, which is why the appends below need no capacity
// check.
func (c *column) acceptReply(idx int, h handle) {
	sl := c.slab
	sw := &c.sw[idx]
	if sw.wait.Len() > 0 {
		r := &sl.msgs[h]
		// PopMatch skips records the reply cannot answer: under fault
		// injection a record goes stale when its combined message is
		// dropped downstream, and a later (retransmitted) reply for the
		// same id must pass through rather than synthesize a second
		// requester's reply from a combine that never reached memory.  On
		// a healthy network every record matches and this is exactly Pop.
		match := func(nr netRecord) bool { return core.CanDecombine(nr.Record, r.rep) }
		if rec, ok := sw.wait.PopMatch(r.rep.ID, match); ok {
			r1, r2 := core.DecombineExact(rec.Record, r.rep)
			if c.trace != nil {
				c.trace(Event{Cycle: c.now(), Kind: EvDecombine,
					ID: r1.ID, ID2: r2.ID, Stage: c.stage, Switch: idx})
			}
			r.rep, sl.routes[h].rvals = r1, boolSlots(rec.needs1)
			sl.msgs[rec.second].rep, sl.routes[rec.second].rvals = r2, boolSlots(rec.needs2)
			c.acceptReply(idx, h)
			c.acceptReply(idx, rec.second)
			return
		}
	}
	port := int(*sl.port(h, c.stage))
	q := &c.revQ[idx*c.radix+port]
	*q = append(*q, h)
	c.nRev[idx]++
	if n := len(*q); n > sw.maxRev {
		sw.maxRev = n
	}
}

// crash flushes switch idx's volatile state — forward queues, reverse
// queues, and the wait buffer's combine records — freeing every slot it
// held and returning the leaf request ids whose only copy here was lost.  A
// flushed wait record is a double loss: the second requester's routing
// state is gone, so even if the combined message's reply returns it passes
// through (PopMatch finds nothing) and the second requester recovers by
// retransmitting.
func (c *column) crash(idx int) []word.ReqID {
	sl := c.slab
	var ids []word.ReqID
	addReq := func(h handle) {
		req := &sl.msgs[h].req
		if req.Reps == nil {
			ids = append(ids, req.ID)
		} else {
			for _, lf := range req.Reps {
				ids = append(ids, lf.ID)
			}
		}
		sl.put(h)
	}
	outs, revs := c.ports(c.outQ, idx), c.ports(c.revQ, idx)
	for port := range outs {
		for _, h := range outs[port] {
			addReq(h)
		}
		outs[port] = outs[port][:0]
		for _, h := range revs[port] {
			rep := &sl.msgs[h].rep
			if rep.Leaves == nil {
				ids = append(ids, rep.ID)
			} else {
				for id := range rep.Leaves {
					ids = append(ids, id)
				}
			}
			sl.put(h)
		}
		revs[port] = revs[port][:0]
	}
	c.nOut[idx], c.nRev[idx] = 0, 0
	for _, rec := range c.sw[idx].wait.Flush() {
		addReq(rec.second)
	}
	return ids
}

func boolSlots(needs bool) uint8 {
	if needs {
		return 1
	}
	return 0
}

// popFwd removes and returns the head of switch idx's forward queue for
// port.
func (c *column) popFwd(idx, port int) handle {
	c.nOut[idx]--
	return popHead(&c.outQ[idx*c.radix+port])
}

// popRev removes and returns the head of switch idx's reverse queue for
// port.
func (c *column) popRev(idx, port int) handle {
	c.nRev[idx]--
	return popHead(&c.revQ[idx*c.radix+port])
}

// popHead shifts the queue down one, so its backing array stays put.
func popHead(q *[]handle) handle {
	h := (*q)[0]
	copy(*q, (*q)[1:])
	*q = (*q)[:len(*q)-1]
	return h
}
