package main

import (
	"fmt"
	"math/bits"
	"time"

	"combining/internal/core"
	"combining/internal/network"
	"combining/internal/word"
)

// replyCheck verifies the replies of one cycle-engine run whose every
// request is fetch-and-add(1):
//
//   - each issued request gets exactly one reply (per-processor ledgers of
//     at most Window entries, so the bookkeeping stays O(window));
//   - the replies seen at each address are exactly 0..k−1, where k is the
//     number of requests to it (one bit per reply value, set once);
//   - the final memory value at each address is k.
//
// It also keeps the exact simulated round-trip distribution of the
// measured window, from the same issue/deliver cycles the engine sees.
type replyCheck struct {
	procs   [][]outstanding // per processor: issued, not yet replied
	seen    [][]uint64      // per address: bitset of reply values
	replies []int64         // per address: replies received
	lat     []int64         // lat[c]: replies with round trip c cycles
	latOn   bool            // record latencies (measured window only)

	issued, delivered int64
	bad               int64 // operations that failed a check
	errs              []string
}

// outstanding is one request in a processor's ledger.
type outstanding struct {
	id    word.ReqID
	addr  word.Addr
	cycle int64
}

// maxErrs bounds the violations kept verbatim; the rest are counted.
const maxErrs = 8

func newReplyCheck(procs, window int, addrs word.Addr) *replyCheck {
	c := &replyCheck{
		procs:   make([][]outstanding, procs),
		seen:    make([][]uint64, addrs),
		replies: make([]int64, addrs),
		lat:     make([]int64, 1024),
	}
	led := make([]outstanding, procs*window)
	for p := range c.procs {
		c.procs[p] = led[p*window : p*window : (p+1)*window]
	}
	// One word per address up front covers values 0..63; only hot
	// addresses grow, by doubling, so the measured window barely
	// allocates.
	words := make([]uint64, addrs)
	for a := range c.seen {
		c.seen[a] = words[a : a+1 : a+1]
	}
	return c
}

func (c *replyCheck) fail(ops int64, format string, args ...any) {
	c.bad += ops
	if len(c.errs) < maxErrs {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// issue records a request handed to the engine.
func (c *replyCheck) issue(proc int, id word.ReqID, addr word.Addr, cycle int64) {
	c.issued++
	led := c.procs[proc]
	if len(led) == cap(led) {
		c.fail(1, "proc %d issued request %d beyond its window of %d", proc, id, cap(led))
		return
	}
	if int(addr) >= len(c.seen) {
		c.fail(1, "proc %d issued request %d to address %d outside [0,%d)", proc, id, addr, len(c.seen))
		return
	}
	c.procs[proc] = append(led, outstanding{id: id, addr: addr, cycle: cycle})
}

// deliver records one reply carrying old value val.
func (c *replyCheck) deliver(proc int, id word.ReqID, val int64, cycle int64) {
	led := c.procs[proc]
	i := 0
	for i < len(led) && led[i].id != id {
		i++
	}
	if i == len(led) {
		c.fail(1, "proc %d got a reply to request %d it has no outstanding request for (duplicate or stray)", proc, id)
		return
	}
	o := led[i]
	led[i] = led[len(led)-1]
	c.procs[proc] = led[:len(led)-1]
	c.delivered++

	if c.latOn {
		l := cycle - o.cycle
		for l >= int64(len(c.lat)) {
			c.lat = append(c.lat, make([]int64, len(c.lat))...)
		}
		c.lat[l]++
	}
	c.replies[o.addr]++
	set := c.seen[o.addr]
	if val < 0 {
		c.fail(1, "request %d at address %d got negative old value %d", id, o.addr, val)
		return
	}
	w := int(val >> 6)
	for w >= len(set) {
		set = append(set, make([]uint64, len(set))...)
	}
	c.seen[o.addr] = set
	bit := uint64(1) << (val & 63)
	if set[w]&bit != 0 {
		c.fail(1, "address %d returned old value %d twice", o.addr, val)
		return
	}
	set[w] |= bit
}

// finish checks, after the engine has drained, that no request is still
// unanswered and that every address's replies and final value agree.
func (c *replyCheck) finish(peek func(word.Addr) int64) {
	for p, led := range c.procs {
		for _, o := range led {
			c.fail(1, "proc %d request %d to address %d never got a reply", p, o.id, o.addr)
		}
	}
	for a, set := range c.seen {
		k := c.replies[a]
		// k distinct values (duplicates were rejected on arrival) are
		// exactly 0..k−1 iff none reaches k.
		if hi := highestBit(set); hi >= k {
			c.fail(k, "address %d returned old value %d with only %d replies", a, hi, k)
		}
		if v := peek(word.Addr(a)); v != k {
			c.fail(max(k, 1), "address %d holds %d after %d fetch-and-add(1)s", a, v, k)
		}
	}
}

// highestBit returns the largest value set in a bitset, or -1.
func highestBit(set []uint64) int64 {
	for w := len(set) - 1; w >= 0; w-- {
		if set[w] != 0 {
			return int64(w*64 + 63 - bits.LeadingZeros64(set[w]))
		}
	}
	return -1
}

// latPercentile returns the smallest round trip at or below which a
// fraction q of the recorded replies completed, and the sample count.
func (c *replyCheck) latPercentile(q float64) (int64, int64) {
	var n int64
	for _, k := range c.lat {
		n += k
	}
	if n == 0 {
		return 0, 0
	}
	target := int64(q*float64(n) + 0.5)
	if target < 1 {
		target = 1
	}
	var cum int64
	for l, k := range c.lat {
		cum += k
		if cum >= target {
			return int64(l), n
		}
	}
	return int64(len(c.lat) - 1), n
}

// checkedInjector wraps one processor's traffic generator: it feeds every
// request and reply through the shared replyCheck, stops offering traffic
// once the run is stopped, and — when a tracer is attached — times the
// generator's calls and marks cycle boundaries.  The engines call
// injectors from one goroutine at a time (the parallel stepper commits
// deliveries serially on the Run caller), so the shared state needs no
// locking.
type checkedInjector struct {
	proc  int
	gen   *network.Stochastic
	check *replyCheck
	run   *runState
}

// runState is the state the injectors of one machine share.
type runState struct {
	stopped bool
	tr      *tracer // nil when untraced
}

var _ network.Injector = (*checkedInjector)(nil)

func (c *checkedInjector) Next(cycle int64) (network.Injection, bool) {
	if c.run.stopped {
		return network.Injection{}, false
	}
	if tr := c.run.tr; tr != nil {
		t0 := tr.stamp(cycle)
		inj, ok := c.gen.Next(cycle)
		tr.nextNs += time.Since(t0).Nanoseconds()
		tr.nextCalls++
		if ok {
			c.check.issue(c.proc, inj.Req.ID, inj.Req.Addr, cycle)
		}
		return inj, ok
	}
	inj, ok := c.gen.Next(cycle)
	if ok {
		c.check.issue(c.proc, inj.Req.ID, inj.Req.Addr, cycle)
	}
	return inj, ok
}

func (c *checkedInjector) Deliver(rep core.Reply, cycle int64) {
	c.check.deliver(c.proc, rep.ID, rep.Val.Val, cycle)
	if tr := c.run.tr; tr != nil {
		t0 := tr.stamp(cycle)
		c.gen.Deliver(rep, cycle)
		tr.deliverNs += time.Since(t0).Nanoseconds()
		tr.deliverCalls++
		return
	}
	c.gen.Deliver(rep, cycle)
}

// tracer times the traffic generator and the cycle boundaries of one
// engine run from inside the injector callbacks, which receive the cycle
// number while the engine runs under Sim.Run.
type tracer struct {
	nextNs, deliverNs       int64
	nextCalls, deliverCalls int64

	on        bool // inside a timed Run chunk
	lastCycle int64
	lastStamp time.Time
	cycleNs   []int64 // host ns of each whole cycle seen
}

// stamp returns the current time and, on the first callback of a new
// cycle, records the previous cycle's duration.
func (tr *tracer) stamp(cycle int64) time.Time {
	now := time.Now()
	if tr.on && cycle != tr.lastCycle {
		if cycle == tr.lastCycle+1 && !tr.lastStamp.IsZero() {
			tr.cycleNs = append(tr.cycleNs, now.Sub(tr.lastStamp).Nanoseconds())
		}
		tr.lastCycle, tr.lastStamp = cycle, now
	}
	return now
}

// chunk brackets one timed Run call: cycle boundaries are taken only
// between callbacks inside the same call, so the benchmark's own work
// between calls never lands in a cycle's time.
func (tr *tracer) chunk(on bool) {
	tr.on = on
	tr.lastStamp = time.Time{}
	tr.lastCycle = -1
}
