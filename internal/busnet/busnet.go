// Package busnet models the last architecture of Section 7: "Combining
// can also be used on machines where multiple processors are connected to
// a shared memory by a bus.  The shared memory is often heavily
// interleaved; thus it achieves high, but uneven, throughput.  A FIFO
// buffer is often used to decouple memory from the shared bus.  Combining
// in this queue will improve the memory throughput by reducing conflicting
// accesses to the same memory bank."
//
// The machine: processors arbitrate for a bus carrying one request per
// cycle into a central FIFO; the FIFO head dispatches to an interleaved
// bank when that bank is idle (head-of-line blocking on a busy bank is
// precisely the conflict combining removes); replies decombine against the
// FIFO's wait buffer and return to the issuing processor.
package busnet

import (
	"fmt"

	"combining/internal/core"
	"combining/internal/engine"
	"combining/internal/faults"
	"combining/internal/memory"
	"combining/internal/par"
	"combining/internal/stats"
	"combining/internal/word"
)

// Config parameterizes the bus machine.
type Config struct {
	// Procs is the number of processors (any count ≥ 1).
	Procs int
	// Banks is the number of interleaved memory banks (≥ 1).
	Banks int
	// QueueCap bounds the decoupling FIFO (default 8).
	QueueCap int
	// BankQueueCap bounds each bank's input queue, including the request
	// in service; the FIFO head dispatches only while the target bank is
	// below it, holding (head-of-line blocking) otherwise.  0 defaults to
	// 1 — the classic decoupled-bus design where a bank accepts the next
	// request only when idle.
	BankQueueCap int
	// WatchdogCycles is the progress watchdog limit (see
	// internal/network.Config.WatchdogCycles): 0 defaults to
	// engine.DefaultWatchdogCycles, negative disables.
	WatchdogCycles int64
	// WaitBufCap bounds the FIFO's wait buffer (0 disables combining).
	WaitBufCap int
	// BankService is cycles per memory operation (default 4 — banks are
	// slower than the bus, which is why they are interleaved).
	BankService int
	// AllowReversal enables the Section 5.1 optimization.
	AllowReversal bool
	// Workers shards the bank-service scan of each cycle across this many
	// goroutines (see internal/par and DESIGN.md §6): banks tick in
	// parallel — each touches only its own module — and completions commit
	// serially in bank order, so output is byte-for-byte identical at any
	// setting.  0 or 1 keep the single-threaded stepper.
	Workers int
	// Faults, when non-nil, arms the deterministic fault plan and the
	// recovery layer (see internal/faults and internal/network.Config).
	// The bus machine has one switch site (0, 0): a stall window there
	// freezes the bus and decoupling FIFO; bank slowdowns key on the
	// window's Index as the bank number.
	Faults *faults.Plan
}

type qmsg struct {
	req   core.Request
	src   int
	issue int64
	hot   bool
}

type brec struct {
	core.Record
	src2   int
	issue2 int64
	hot2   bool
	// reps2 names the second request's leaves so a crash flushing this
	// record can report exactly which operations lost their reply path.
	reps2 []core.Leaf
}

// Stats summarizes a run.
type Stats struct {
	Cycles     int64
	Issued     int64
	Completed  int64
	LatencySum int64
	Combines   int64
	BankOps    int64
	// BusOps counts requests the bus carried into the decoupling FIFO —
	// part of the movement signature the progress watchdog keys on.
	BusOps int64
	// HOLBlocked counts cycles the FIFO head was stalled on a busy bank.
	HOLBlocked int64

	// SaturationCycles counts cycles the decoupling FIFO was full with
	// the head blocked on a busy bank — the bus machine's saturation
	// regime; SaturationMaxStreak is the longest run.
	SaturationCycles    int64
	SaturationMaxStreak int64

	// WatchdogTrips is 1 if the progress watchdog declared a stall.
	WatchdogTrips int64

	// Checkpoints counts bank checkpoints committed (crash plans only;
	// see internal/recover).
	Checkpoints int64
}

// MeanLatency is the average round trip in cycles.
func (s Stats) MeanLatency() float64 {
	if s.Completed == 0 {
		return 0
	}
	return float64(s.LatencySum) / float64(s.Completed)
}

// Bandwidth is completed operations per cycle.
func (s Stats) Bandwidth() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Completed) / float64(s.Cycles)
}

// Sim is the cycle-driven bus machine.  The embedded Endpoint is the
// machine's edge — processor ports, faults, the terminal links, completion
// and the Run/Drain loop; Sim holds the bus, the decoupling FIFO and its
// wait buffer.
type Sim struct {
	engine.Endpoint[qmsg]

	cfg   Config
	queue []qmsg
	wait  *core.WaitBuffer[brec]
	meta  map[word.ReqID]qmsg
	pol   core.Policy

	// stats holds the interior counters (the endpoint folds in the
	// port-side ones); fifoHW tracks the deepest decoupling FIFO observed.
	stats  Stats
	fifoHW stats.HighWater

	// busDead is the bus fault domain's crash mask (crash plans only):
	// switch site (0, 0) — a crash flushes the FIFO, the wait buffer and
	// the reply metadata.  Each bank is a module of the endpoint's (a
	// crash rolls it back to its last checkpoint).
	busDead bool

	// Parallel bank-scan state (Config.Workers > 1, nil otherwise): the
	// worker pool (persistent workers bracketed by Run/Drain), the scan
	// function bound once at construction so the cycle loop builds no
	// closures, and the per-bank completion buffer filled in the compute
	// phase and committed serially in bank order.  See DESIGN.md §6.
	pool    *par.Pool
	tickFn  func(w int)
	tickBuf []bankTick
}

// bankTick is one bank's compute-phase result: the reply its module
// completed this cycle, if any.  Padded: workers write adjacent entries
// of the contiguous buffer during the compute phase, and unpadded
// neighbors would false-share at the split boundaries.
type bankTick struct {
	rep core.Reply
	ok  bool
	_   [64]byte
}

// Validate reports whether the configuration is usable, with the
// documented zero-value defaults applied first; all config policing
// funnels through the engine core's Spec path (NewSim panics with the
// same error).
func (c Config) Validate() error {
	return c.normalize()
}

// normalize applies the defaults in place and validates the result.
func (c *Config) normalize() error {
	spec := engine.Spec{
		Engine:   "busnet",
		Procs:    c.Procs,
		MinProcs: 1,
		Banks:    c.Banks,
		Workers:  c.Workers,
		Service:  c.BankService,
		AdversarialSerial: c.Faults != nil && c.Faults.HasAdversarial() &&
			c.Workers > 1,
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	if c.QueueCap == 0 {
		c.QueueCap = 8
	}
	if c.BankQueueCap == 0 {
		c.BankQueueCap = 1
	}
	if c.WatchdogCycles == 0 {
		c.WatchdogCycles = engine.DefaultWatchdogCycles
	}
	if c.BankService == 0 {
		c.BankService = 4
	}
	return nil
}

// NewSim builds the machine.
func NewSim(cfg Config, inj []engine.Injector) *Sim {
	if err := cfg.normalize(); err != nil {
		panic(err)
	}
	if len(inj) != cfg.Procs {
		panic(fmt.Sprintf("busnet: got %d injectors for %d processors", len(inj), cfg.Procs))
	}
	memOpts := []memory.Option{memory.WithServiceTime(cfg.BankService)}
	if cfg.BankQueueCap > 0 {
		memOpts = append(memOpts, memory.WithQueueCap(cfg.BankQueueCap))
	}
	s := &Sim{
		cfg:  cfg,
		wait: core.NewWaitBuffer[brec](cfg.WaitBufCap),
		meta: make(map[word.ReqID]qmsg),
		pol:  core.Policy{AllowReversal: cfg.AllowReversal},
	}
	if cfg.Workers > 1 {
		s.pool = par.NewPool(cfg.Workers)
		s.tickFn = s.tickWorker
		s.tickBuf = make([]bankTick, cfg.Banks)
	}
	s.Init(engine.Setup[qmsg]{
		Name:        "busnet",
		Injectors:   inj,
		Modules:     cfg.Banks,
		MemOpts:     memOpts,
		Faults:      cfg.Faults,
		Watchdog:    cfg.WatchdogCycles,
		Pool:        s.pool,
		Step:        s.Step,
		Occupancy:   func() int { return len(s.queue) + s.wait.Len() + len(s.meta) },
		StallDetail: s.stallDetail,
		Req:         qmsgReq,
		File:        func(_ int, m qmsg) { s.meta[m.req.ID] = m },
		// The reply link is the return bus: replies decombine against
		// the FIFO's wait buffer after it, not before.
		Land:     s.deliver,
		MemSite:  func(bank int) uint64 { return faults.Site(1, bank, 0) },
		ProcSite: func(p int) uint64 { return faults.Site(2, 0, p) },
	})
	return s
}

// tickWorker is the per-worker body of the parallel bank compute phase,
// bound to Sim.tickFn once at construction.
func (s *Sim) tickWorker(w int) {
	lo, hi := par.Split(s.cfg.Banks, s.pool.Workers(), w)
	for b := lo; b < hi; b++ {
		s.tickBuf[b].rep, s.tickBuf[b].ok = s.tickBank(b)
	}
}

// Stats snapshots the counters, folding in the endpoint's.
func (s *Sim) Stats() Stats {
	st := s.stats
	t := s.Tally()
	st.Cycles, st.Issued, st.Completed, st.LatencySum = t.Cycles, t.Issued, t.Completed, t.LatencySum
	st.SaturationCycles, st.SaturationMaxStreak = t.SaturationCycles, t.SaturationMaxStreak
	st.WatchdogTrips = t.WatchdogTrips
	st.BankOps += s.LinkEnqueued()
	return st
}

// Snapshot captures the run's instrumentation behind the shared
// cross-engine API (see internal/stats).
func (s *Sim) Snapshot() stats.Snapshot {
	st := s.Stats()
	// HOLBlocked doubles as holds_mem: a head-of-line block IS this
	// machine's memory-input hold (the blocked request sits at the FIFO
	// head waiting for its bank), published under both the bus-specific
	// and the cross-engine name.
	return s.BuildSnapshot(engine.Counters{
		Combines:       st.Combines,
		CombineRejects: s.wait.Rejections,
		BankOps:        st.BankOps,
		BusOps:         st.BusOps,
		HOLBlocked:     st.HOLBlocked,
		HoldsMem:       st.HOLBlocked,
		Checkpoints:    st.Checkpoints,
	}, map[string]int64{
		"fifo_max":      s.fifoHW.Load(),
		"max_mem_queue": int64(s.Memory().MaxQueueDepth()),
	})
}

// Step advances one cycle: bank completions return (and decombine), the
// FIFO head dispatches, and one processor wins the bus.
func (s *Sim) Step() {
	s.step()
	// Saturation: the decoupling FIFO is full AND its head is blocked on a
	// busy bank — offered load has nowhere to go but the bus arbitration
	// holds, the bus machine's tree-saturation analogue.
	s.EndCycle(len(s.queue) >= s.cfg.QueueCap && s.holBlockedNow(),
		s.stats.BusOps+s.stats.BankOps+s.LinkEnqueued())
}

// holBlockedNow reports whether the FIFO head currently cannot dispatch.
func (s *Sim) holBlockedNow() bool {
	if len(s.queue) == 0 {
		return false
	}
	bank := s.Memory().HomeOf(s.queue[0].req.Addr)
	return !s.Memory().Module(bank).CanEnqueue()
}

// stallDetail is the bus machine's part of the stall report.
func (s *Sim) stallDetail() string {
	banks := 0
	for b := 0; b < s.cfg.Banks; b++ {
		banks += s.Memory().Module(b).QueueLen()
	}
	return fmt.Sprintf("fifo=%d wait=%d banks=%d meta=%d", len(s.queue), s.wait.Len(), banks, len(s.meta))
}

func (s *Sim) step() {
	s.StartCycle()
	if s.Recovery() != nil {
		s.updateCrashState()
	}
	if s.CheckpointDue() {
		for b := 0; b < s.cfg.Banks; b++ {
			if !s.ModDead(b) {
				s.Memory().Module(b).Checkpoint()
				s.stats.Checkpoints++
			}
		}
	}
	s.Redrive()

	// Bank completions: tick every bank (compute — bank-local), then
	// commit the completed replies in ascending bank order (metadata, drop
	// decisions, decombining and delivery all touch shared state).
	if s.pool != nil {
		s.pool.Run(s.tickFn)
		for b := 0; b < s.cfg.Banks; b++ {
			if s.tickBuf[b].ok {
				s.commitBank(b, s.tickBuf[b].rep)
			}
		}
	} else {
		for b := 0; b < s.cfg.Banks; b++ {
			if rep, ok := s.tickBank(b); ok {
				s.commitBank(b, rep)
			}
		}
	}

	flt := s.Faults()
	if flt != nil && flt.Stalled(0, 0, s.Cycle()) {
		return // blackout: the bus and decoupling FIFO freeze
	}
	if s.busDead {
		return // crashed bus/FIFO: nothing moves until the restart
	}

	// Dispatch the FIFO head when its bank has input-queue room (with the
	// default BankQueueCap of 1: when the bank is idle).
	if len(s.queue) > 0 {
		head := s.queue[0]
		bank := s.Memory().HomeOf(head.req.Addr)
		md := s.Memory().Module(bank)
		if s.ModDead(bank) {
			s.stats.HOLBlocked++ // dead bank: the head holds, like a busy one
		} else if md.CanEnqueue() {
			copy(s.queue, s.queue[1:])
			s.queue = s.queue[:len(s.queue)-1]
			if flt != nil && (flt.DropForward(faults.Site(1, bank, 0), head.req.ID, head.req.Attempt) ||
				flt.DropLinkFwd(1, bank, s.Cycle())) {
				// Request lost on the FIFO-to-bank link.
			} else if s.Adversarial() {
				s.MemLink(bank, head)
			} else {
				s.meta[head.req.ID] = head
				md.Enqueue(head.req)
				s.stats.BankOps++
			}
		} else {
			s.stats.HOLBlocked++
		}
	}

	// Bus arbitration: round-robin; one request enters the FIFO.  A
	// transfer lost on the bus still consumed the bus cycle.
	for off := 0; off < s.cfg.Procs; off++ {
		p := (off + int(s.Cycle())) % s.cfg.Procs
		m, retry, ok := s.Offer(p)
		if !ok {
			continue
		}
		if flt != nil && (flt.DropForward(faults.Site(0, 0, p), m.Req.ID, m.Req.Attempt) ||
			flt.DropLinkFwd(0, 0, s.Cycle())) {
			s.Take(p, retry)
			break
		}
		if s.enqueue(qmsg{req: m.Req, src: p, issue: m.Issue, hot: m.Hot}) {
			s.Take(p, retry)
			break // the bus carries one request per cycle
		}
	}
}

// updateCrashState advances the crash masks one cycle, the bus and then
// every bank: a rising edge flushes the component (its queued work is lost
// and reported to the recovery ledger), a falling edge is the restart.
func (s *Sim) updateCrashState() {
	if s.CrashEdge(s.Faults().SwitchCrashed(0, 0, s.Cycle()), &s.busDead) {
		s.Lost(s.crashBus())
	}
	for b := 0; b < s.cfg.Banks; b++ {
		s.ModuleEdge(b)
	}
}

// crashBus flushes the bus fault domain: the decoupling FIFO, the wait
// buffer, and the reply metadata all vanish.  Requests already inside a
// bank keep executing, but with their metadata gone the replies surface as
// orphans at a dead FIFO — the retransmission path re-drives them through
// the bank reply caches, so exactly-once survives the flush.  The returned
// leaf ids are the operations whose reply path was lost.
func (s *Sim) crashBus() []word.ReqID {
	var lost []word.ReqID
	add := func(reps []core.Leaf, id word.ReqID) {
		if len(reps) == 0 {
			lost = append(lost, id)
			return
		}
		for _, l := range reps {
			lost = append(lost, l.ID)
		}
	}
	for i := range s.queue {
		add(s.queue[i].req.Reps, s.queue[i].req.ID)
	}
	for _, rec := range s.wait.Flush() {
		add(rec.reps2, rec.ID2)
	}
	for _, m := range s.meta {
		add(m.req.Reps, m.req.ID)
	}
	s.queue = s.queue[:0]
	clear(s.meta)
	return lost
}

// tickBank advances bank b one service cycle, returning a completed reply
// if one emerged.  Everything here is bank-local (the slowdown-window
// decision is a pure hash with atomic counters), so banks tick in parallel
// under Config.Workers.
func (s *Sim) tickBank(b int) (core.Reply, bool) {
	if s.ModDead(b) {
		return core.Reply{}, false // crashed bank serves nothing until restart
	}
	if flt := s.Faults(); flt != nil && flt.MemStalled(b, s.Cycle()) {
		return core.Reply{}, false // bank inside a slowdown window serves nothing
	}
	return s.Memory().Module(b).Tick()
}

// commitBank resolves one completed reply against the shared machine state:
// metadata, the reply-drop decision, and delivery with decombining.  Under
// an adversarial plan the return bus is the reply link, stamped at the
// bank's output latch; decombining happens on the far side.
func (s *Sim) commitBank(b int, rep core.Reply) {
	flt := s.Faults()
	m, found := s.meta[rep.ID]
	if !found {
		if flt != nil {
			s.AddOrphans(1) // losing copy of an original/retransmit pair
			return
		}
		panic(fmt.Sprintf("busnet: cycle %d, bank %d: reply id %d (%v) without metadata",
			s.Cycle(), b, rep.ID, rep))
	}
	delete(s.meta, rep.ID)
	if flt != nil && (flt.DropReply(faults.Site(2, 0, m.src), rep.ID, rep.Attempt) ||
		flt.DropLinkRev(2, 0, s.Cycle())) {
		return // reply lost on the return path
	}
	d := engine.Delivery{Rep: rep, Proc: m.src, Issue: m.issue, Hot: m.hot}
	if s.Adversarial() {
		s.ReplyLink(d)
		return
	}
	s.deliver(d)
}

// deliver routes a reply (and its decombined fan-out) back to processors.
func (s *Sim) deliver(d engine.Delivery) {
	match := func(r brec) bool { return core.CanDecombine(r.Record, d.Rep) }
	if rec, ok := s.wait.PopMatch(d.Rep.ID, match); ok {
		r1, r2 := core.DecombineExact(rec.Record, d.Rep)
		s.deliver(engine.Delivery{Rep: r1, Proc: d.Proc, Issue: d.Issue, Hot: d.Hot})
		s.deliver(engine.Delivery{Rep: r2, Proc: rec.src2, Issue: rec.issue2, Hot: rec.hot2})
		return
	}
	s.Complete(d)
}

// enqueue inserts a request into the FIFO, combining with the most recent
// same-address entry when possible (the M2.3 scan shared with the other
// engines via core.CombineAtTail).
func (s *Sim) enqueue(m qmsg) bool {
	tc, rejected, ok := core.CombineAtTail(s.queue, qmsgReq, m.req, s.pol, s.wait.CanPush)
	if rejected {
		s.wait.Rejections++
	}
	if ok {
		queued := &s.queue[tc.Index]
		first, second := *queued, m
		if tc.Swapped {
			first, second = m, *queued
		}
		if s.wait.Push(tc.Rec.ID1, brec{
			Record: tc.Rec,
			src2:   second.src,
			issue2: second.issue,
			hot2:   second.hot,
			reps2:  second.req.Reps,
		}) {
			*queued = qmsg{req: tc.Combined, src: first.src, issue: first.issue, hot: first.hot}
			s.stats.Combines++
			s.stats.BusOps++
			return true
		}
	}
	if len(s.queue) >= s.cfg.QueueCap {
		return false
	}
	s.queue = append(s.queue, m)
	s.fifoHW.Observe(int64(len(s.queue)))
	s.stats.BusOps++
	return true
}

// qmsgReq projects a queued message to its request for the shared scan.
func qmsgReq(m *qmsg) *core.Request { return &m.req }
