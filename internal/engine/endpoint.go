package engine

import (
	"combining/internal/core"
	"combining/internal/faults"
	"combining/internal/flow"
	"combining/internal/memory"
	"combining/internal/par"
	"combining/internal/recover"
	"combining/internal/stats"
	"combining/internal/word"
)

// DefaultWatchdogCycles is the default no-progress limit: far above the
// fault plans' capped retransmit backoff (RetryCap defaults to 512 cycles),
// so only a genuine livelock or deadlock can trip it.
const DefaultWatchdogCycles = 10000

// Injection is one request offered by an injector, tagged for metrics.
type Injection struct {
	Req core.Request
	Hot bool
}

// Injector supplies traffic for one processor port and consumes replies.
// Implementations need not be safe for concurrent use; the simulator calls
// them from a single goroutine.
type Injector interface {
	// Next offers the next request at the given cycle.  ok=false means
	// the processor has nothing to issue this cycle.  A request returned
	// by Next is guaranteed to be injected (possibly stalled for queue
	// space first); Next is not called again until then.
	Next(cycle int64) (Injection, bool)
	// Deliver hands a completed reply back.
	Deliver(rep core.Reply, cycle int64)
}

// Machine is what the harnesses that drive a cycle engine (soaks, the
// chaos fuzzer, trace replay) use of it: the engine's own Step, InFlight,
// Snapshot and Memory plus the watchdog of the Endpoint it embeds.
type Machine interface {
	Step()
	InFlight() int
	Stalled() bool
	StallReport() string
	Snapshot() stats.Snapshot
	Memory() *memory.Array
}

// Msg is a request at a processor port: the pending slot and the
// retransmit queue hold these, and the engine turns one into its interior
// message when the port admits it.
type Msg struct {
	Req   core.Request
	Issue int64 // issue cycle, for round-trip latency
	Hot   bool  // hot-spot traffic, for the per-class latency split
}

// Delivery is a reply at the processor edge of the machine.
type Delivery struct {
	Rep   core.Reply
	Proc  int
	Issue int64
	Hot   bool
}

// Setup configures an Endpoint: the machine's edge resources plus the
// hooks into the engine's interior.  F is the engine's request message as
// it crosses the memory link — the metadata its interior files per request
// so the reply can find its way back.
type Setup[F any] struct {
	Name      string // engine name in snapshots and stall reports
	Injectors []Injector
	Modules   int
	// MemOpts are the engine's module options; the fault plan's reply
	// cache, checkpoint and canary options are appended.
	MemOpts  []memory.Option
	Faults   *faults.Plan
	Watchdog int64     // progress watchdog limit (negative disables)
	Pool     *par.Pool // the parallel stepper's pool; nil when serial

	// Step advances the whole machine one cycle; Occupancy counts the
	// messages inside the interior (queues, wait buffers, memory) for
	// InFlight on a healthy machine; StallDetail formats the interior part
	// of the stall report.
	Step        func()
	Occupancy   func() int
	StallDetail func() string

	// The memory link's hooks, called only under an adversarial plan.
	// Req projects the request out of a message; File records a verified
	// request's metadata as it enters module mod; Drop releases a message
	// the link quarantined (nil: nothing to release); ModuleReady reports
	// whether a request released from the link's limbo can enter mod this
	// cycle (nil: the module is alive and has input room).  The link
	// duplicates only the wire request, never a message, so File and Drop
	// see each message at most once.
	Req         func(*F) *core.Request
	File        func(mod int, m F)
	Drop        func(m F)
	ModuleReady func(mod int) bool
	// Land takes a verified reply off the processor link (nil: Complete).
	Land func(Delivery)
	// MemSite and ProcSite name the two links' fault sites.
	MemSite, ProcSite func(int) uint64

	// Issued and Delivered observe the port for tracing; nil when untraced.
	Issued    func(proc int, req core.Request)
	Delivered func(proc int, rep core.Reply)
}

// Tally is the port-side statistics every engine reports.
type Tally struct {
	Cycles, Issued, Completed, LatencySum                      int64
	HotCompleted, HotLatencySum, ColdCompleted, ColdLatencySum int64
	SaturationCycles, SaturationMaxStreak, WatchdogTrips       int64
}

// held is a message deferred by link-level reordering until its release
// cycle; at is the module of a request, unused for a reply.
type held[T any] struct {
	release int64
	at      int
	m       T
}

// Endpoint is the edge of a cycle engine — everything outside the
// interior that combines and routes: the processor ports (pending slot,
// retransmit queue, exactly-once admission), the fault injector, tracker
// and crash–restart ledger, the module crash masks, both adversarial
// terminal links (request → memory, reply → processor), reply completion,
// the progress watchdog and saturation monitor, and the Run/Drain loop.
// Engines embed it and keep only their interior step.
type Endpoint[F any] struct {
	in  Setup[F]
	now int64
	mem *memory.Array

	// pending holds a request accepted from an injector but not yet
	// admitted (backpressure at the port); hasPending marks the occupied
	// slots.  Values, not pointers, so the injection path never escapes a
	// message to the heap.
	pending    []Msg
	hasPending []bool

	tally Tally
	lat   stats.Histogram
	wd    *flow.Watchdog
	sat   flow.Saturation

	// Fault-mode state (nil/zero on a healthy machine).  retry queues
	// retransmissions per processor, ahead of fresh traffic.
	flt   *faults.Injector
	trk   *faults.Tracker
	retry [][]Msg
	// orphans counts replies reaching memory's exit with no request
	// metadata — the expected fate of the losing copy when an original and
	// a retransmit both reach memory.
	orphans int64
	// rec is the crash–restart ledger and memDead this cycle's dead
	// modules (crash plans only).
	rec     *recover.Manager
	memDead []bool
	// adv arms the integrity layer on the terminal links; the limbos hold
	// reordered messages until their release cycle, and linkIn counts the
	// requests the memory link enqueued.
	adv      bool
	fwdLimbo []held[F]
	revLimbo []held[Delivery]
	linkIn   int64
}

// Init builds the edge: memory, ports, watchdog, and under a fault plan
// the injector, tracker and (with crash windows) the recovery ledger.
func (e *Endpoint[F]) Init(s Setup[F]) {
	opts := s.MemOpts
	plan := s.Faults
	if plan != nil {
		opts = append(opts, memory.WithReplyCache())
		if plan.HasCrashes() {
			opts = append(opts, memory.WithCheckpoints())
		}
		if plan.Canary == "nodedup" {
			opts = append(opts, memory.WithNoDedupCanary())
		}
	}
	n := len(s.Injectors)
	*e = Endpoint[F]{
		in:         s,
		mem:        memory.NewArray(s.Modules, opts...),
		pending:    make([]Msg, n),
		hasPending: make([]bool, n),
		wd:         flow.NewWatchdog(s.Watchdog),
	}
	if plan != nil {
		e.flt = faults.NewInjector(*plan)
		e.trk = faults.NewTracker(e.flt)
		e.adv = plan.HasAdversarial()
		e.retry = make([][]Msg, n)
		if plan.HasCrashes() {
			e.rec = recover.New(plan.CheckpointEvery)
			e.memDead = make([]bool, s.Modules)
		}
	}
}

// Cycle returns the current cycle number.
func (e *Endpoint[F]) Cycle() int64 { return e.now }

// Memory exposes the module array (for initialization and inspection).
func (e *Endpoint[F]) Memory() *memory.Array { return e.mem }

// Faults exposes the fault injector (nil on a healthy machine).
func (e *Endpoint[F]) Faults() *faults.Injector { return e.flt }

// Tracker exposes the exactly-once delivery ledger (nil on a healthy
// machine).
func (e *Endpoint[F]) Tracker() *faults.Tracker { return e.trk }

// Recovery exposes the crash–restart ledger (nil without crash windows).
func (e *Endpoint[F]) Recovery() *recover.Manager { return e.rec }

// Orphans reports replies that arrived with no request metadata (fault mode
// only; on a healthy machine an orphan is a bug and panics instead).
func (e *Endpoint[F]) Orphans() int64 { return e.orphans }

// AddOrphans folds orphans counted by the interior into the total.
func (e *Endpoint[F]) AddOrphans(n int64) { e.orphans += n }

// Adversarial reports whether the terminal links reorder, duplicate and
// corrupt (Validate rejects such plans with the parallel stepper).
func (e *Endpoint[F]) Adversarial() bool { return e.adv }

// LinkEnqueued counts requests the adversarial memory link enqueued,
// duplicates included; engines add it to their memory-entry counter.
func (e *Endpoint[F]) LinkEnqueued() int64 { return e.linkIn }

// Stalled reports whether the progress watchdog has tripped: work was in
// flight and nothing moved for the watchdog limit.
func (e *Endpoint[F]) Stalled() bool { return e.wd.Tripped() }

// Tally returns the port-side statistics.
func (e *Endpoint[F]) Tally() Tally {
	t := e.tally
	t.Cycles = e.now
	t.SaturationCycles = e.sat.Cycles()
	t.SaturationMaxStreak = e.sat.MaxStreak()
	return t
}

// Latency returns the round-trip latency histogram (cycles).
func (e *Endpoint[F]) Latency() stats.HistogramSnapshot { return e.lat.Snapshot() }

// StartCycle advances the clock; the engine then updates its stall and
// crash masks and calls Redrive.
func (e *Endpoint[F]) StartCycle() { e.now++ }

// Redrive queues the requests whose retransmit timers expired and
// releases reordered messages whose deferral has elapsed.
func (e *Endpoint[F]) Redrive() {
	if e.flt == nil {
		return
	}
	for _, p := range e.trk.Expired(e.now) {
		e.retry[p.Proc] = append(e.retry[p.Proc],
			Msg{Req: p.Req, Issue: p.IssueCycle, Hot: p.Hot})
	}
	if e.adv {
		e.drainLimbo()
	}
}

// CrashEdge advances one crash mask entry to this cycle's state.  A
// rising edge counts the crash and reports true: the caller flushes the
// component and passes what it lost to Lost.  A falling edge counts the
// restart.  Engines call it serially at the top of Step, so every Workers
// width sees the same schedule.
func (e *Endpoint[F]) CrashEdge(dead bool, mask *bool) bool {
	was := *mask
	*mask = dead
	switch {
	case dead && !was:
		e.rec.NoteCrash()
		return true
	case !dead && was:
		e.rec.NoteRestore()
	}
	return false
}

// Lost records the operations a crash flushed.
func (e *Endpoint[F]) Lost(ids []word.ReqID) { e.rec.NoteLost(e.trk, ids) }

// ModuleEdge advances module mod's crash mask: a crash rolls the module
// back to its last checkpoint, and the restart rejoins it there.
func (e *Endpoint[F]) ModuleEdge(mod int) {
	if e.CrashEdge(e.flt.MemCrashed(mod, e.now), &e.memDead[mod]) {
		e.Lost(e.mem.Module(mod).Crash())
	}
}

// ModDead reports whether module mod is crashed this cycle.
func (e *Endpoint[F]) ModDead(mod int) bool { return e.memDead != nil && e.memDead[mod] }

// CheckpointDue reports whether modules commit a checkpoint this cycle.
func (e *Endpoint[F]) CheckpointDue() bool {
	return e.rec != nil && e.rec.CheckpointDue(e.now)
}

// Offer returns processor p's candidate for this cycle's injection slot.
// A queued retransmit goes first, bypassing the pending slot: a fresh
// request held there may be waiting on exactly the delivery the retransmit
// recovers.  Otherwise the pending request goes, pulled from the injector
// when the slot is empty — unless an earlier request to the same address
// is undelivered, which holds it at the port so a drop cannot reorder the
// processor's own accesses.  retry says which queue the message came from
// for Take; ok=false means the port offers nothing.
func (e *Endpoint[F]) Offer(p int) (m *Msg, retry, ok bool) {
	if e.flt != nil && len(e.retry[p]) > 0 {
		return &e.retry[p][0], true, true
	}
	if !e.hasPending[p] {
		inj, ok := e.in.Injectors[p].Next(e.now)
		if !ok {
			return nil, false, false
		}
		req := inj.Req
		if e.trk != nil {
			if req.Reps == nil && len(req.Srcs) == 1 {
				// The reply cache needs every message to name its leaves
				// exactly.
				req = req.WithReps()
			}
			e.trk.Track(p, req, inj.Hot, e.now)
		}
		e.pending[p] = Msg{Req: req, Issue: e.now, Hot: inj.Hot}
		e.hasPending[p] = true
		e.tally.Issued++
		if e.in.Issued != nil {
			e.in.Issued(p, req)
		}
	}
	m = &e.pending[p]
	if e.trk != nil && m.Req.Attempt == 0 && e.trk.HeldBack(p, m.Req.Addr) {
		return nil, false, false
	}
	return m, false, true
}

// Take removes processor p's offered message from the port: the interior
// admitted it, or the processor link lost it.
func (e *Endpoint[F]) Take(p int, retry bool) {
	if retry {
		e.retry[p] = e.retry[p][1:]
		return
	}
	e.hasPending[p] = false
}

// Pending counts occupied pending slots.
func (e *Endpoint[F]) Pending() int {
	n := 0
	for _, occupied := range e.hasPending {
		if occupied {
			n++
		}
	}
	return n
}

// MemLink sends request message m across the adversarial link into module
// mod: the link may defer it (reorder), and otherwise it enters.
func (e *Endpoint[F]) MemLink(mod int, m F) {
	r := e.in.Req(&m)
	if d := e.flt.ReorderDelay(e.in.MemSite(mod), r.ID, r.Attempt); d > 0 {
		e.fwdLimbo = append(e.fwdLimbo, held[F]{release: e.now + d, at: mod, m: m})
		return
	}
	e.enter(mod, m)
}

// enter is the module side of the memory link: the request is stamped at
// the last trusted hop (combining has legitimately rewritten the op by
// now), possibly corrupted on the wire, verified, and quarantined on
// mismatch; the retransmit machinery then repairs the loss exactly-once.
// Metadata is filed before the module sees the request and never for a
// quarantined one.  The duplicate draw comes after verification so
// dup_injected counts only messages that actually entered twice: the
// reply cache answers the second copy, and its reply orphans.
func (e *Endpoint[F]) enter(mod int, m F) {
	r := e.in.Req(&m)
	*r = core.StampRequest(*r)
	wire := *r
	site := e.in.MemSite(mod)
	if mask := e.flt.CorruptMask(site, wire.ID, wire.Attempt); mask != 0 {
		wire = core.CorruptRequest(wire, mask)
	}
	if !core.RequestOK(wire) {
		e.flt.NoteCorruptDropped()
		if e.in.Drop != nil {
			e.in.Drop(m)
		}
		return // quarantined: equivalent to a detected drop on this link
	}
	e.in.File(mod, m)
	md := e.mem.Module(mod)
	md.Enqueue(wire)
	e.linkIn++
	if e.flt.Duplicate(site, wire.ID, wire.Attempt) && md.CanEnqueue() {
		// The copy deep-copies its Srcs/Reps slices — a shallow second
		// enqueue would share backing arrays with the first.
		md.Enqueue(wire.Clone())
		e.linkIn++
	}
}

// Deliver hands a reply to its processor: across the adversarial link
// under such a plan, straight to Complete otherwise.
func (e *Endpoint[F]) Deliver(d Delivery) {
	if e.adv {
		e.ReplyLink(d)
		return
	}
	e.Complete(d)
}

// ReplyLink sends a reply across the adversarial link to its processor.
// The reply is stamped here — the last trusted hop — and the link may
// defer it (reorder) before the processor side verifies it.
func (e *Endpoint[F]) ReplyLink(d Delivery) {
	d.Rep = core.StampReply(d.Rep)
	if dl := e.flt.ReorderDelay(e.in.ProcSite(d.Proc), d.Rep.ID, d.Rep.Attempt); dl > 0 {
		e.revLimbo = append(e.revLimbo, held[Delivery]{release: e.now + dl, m: d})
		return
	}
	e.verifyReply(d)
}

// verifyReply is the processor side of the reply link: corrupt on the
// wire, verify the checksum, quarantine on mismatch (the processor
// retransmits and the reply cache answers), and land — twice when the
// link duplicates, with the tracker suppressing the second copy.
func (e *Endpoint[F]) verifyReply(d Delivery) {
	site := e.in.ProcSite(d.Proc)
	wire := d.Rep
	if mask := e.flt.CorruptMask(site, wire.ID, wire.Attempt); mask != 0 {
		wire = core.CorruptReply(wire, mask)
	}
	if !core.ReplyOK(wire) {
		e.flt.NoteCorruptDropped()
		return // quarantined: the retransmit machinery re-drives the op
	}
	d.Rep = wire
	if e.flt.Duplicate(site, wire.ID, wire.Attempt) {
		// The duplicate must own its Leaves map: a shallow copy shares it
		// with the original (see core.Reply.Clone).
		dup := d
		dup.Rep = wire.Clone()
		e.land(dup)
	}
	e.land(d)
}

func (e *Endpoint[F]) land(d Delivery) {
	if e.in.Land != nil {
		e.in.Land(d)
		return
	}
	e.Complete(d)
}

// drainLimbo releases reordered messages whose deferral has elapsed.  It
// runs serially at the top of the cycle, so release order is defined by
// the serial sweep.  A request released to a module that cannot take it
// re-holds one cycle (the deferral bound is on the adversarial link, not
// on ordinary backpressure), and held messages are never re-reordered.
func (e *Endpoint[F]) drainLimbo() {
	if len(e.fwdLimbo) > 0 {
		keep := e.fwdLimbo[:0]
		for _, h := range e.fwdLimbo {
			if h.release > e.now {
				keep = append(keep, h)
				continue
			}
			if !e.moduleReady(h.at) {
				h.release = e.now + 1
				keep = append(keep, h)
				continue
			}
			e.enter(h.at, h.m)
		}
		e.fwdLimbo = keep
	}
	if len(e.revLimbo) > 0 {
		keep := e.revLimbo[:0]
		for _, h := range e.revLimbo {
			if h.release > e.now {
				keep = append(keep, h)
				continue
			}
			e.verifyReply(h.m)
		}
		e.revLimbo = keep
	}
}

func (e *Endpoint[F]) moduleReady(mod int) bool {
	if e.in.ModuleReady != nil {
		return e.in.ModuleReady(mod)
	}
	return !e.ModDead(mod) && e.mem.Module(mod).CanEnqueue()
}

// Complete hands a reply to its processor: duplicate suppression against
// the tracker, crash-replay accounting, latency, and the injector.
func (e *Endpoint[F]) Complete(d Delivery) {
	if e.trk != nil {
		if _, ok := e.trk.Deliver(d.Rep.ID, e.now); !ok {
			return // duplicate of an already-delivered reply; suppressed
		}
	}
	if e.rec != nil {
		// A completion whose in-flight copy a crash flushed was re-driven
		// here by the retry machinery — count the replay.
		e.rec.NoteDelivered(d.Rep.ID)
	}
	lat := e.now - d.Issue
	t := &e.tally
	t.Completed++
	t.LatencySum += lat
	e.lat.Record(lat)
	if d.Hot {
		t.HotCompleted++
		t.HotLatencySum += lat
	} else {
		t.ColdCompleted++
		t.ColdLatencySum += lat
	}
	if e.in.Delivered != nil {
		e.in.Delivered(d.Proc, d.Rep)
	}
	e.in.Injectors[d.Proc].Deliver(d.Rep, e.now)
}

// EndCycle closes the cycle: the saturation monitor observes the
// interior's verdict and the watchdog checks the progress signature.  sig
// is the interior's share — its hop, feed and service counters; the
// endpoint adds issues, completions, orphans, module busy cycles and fault
// events.  Any message movement changes the sum, so if it freezes with
// work in flight nothing is moving anywhere.  The in-flight count matters
// only on such a frozen cycle, so it is computed only then.
func (e *Endpoint[F]) EndCycle(saturated bool, sig int64) {
	e.sat.Observe(saturated)
	sig += e.tally.Issued + e.tally.Completed + e.orphans
	for mod := 0; mod < e.mem.Modules(); mod++ {
		sig += e.mem.Module(mod).BusyCycles
	}
	if e.flt != nil {
		sig += e.flt.Injected()
	}
	inflight := 0
	if e.wd.Stuck(sig) {
		inflight = e.InFlight()
	}
	if e.wd.Observe(e.now, inflight, sig) {
		e.tally.WatchdogTrips++
	}
}

// InFlight reports requests somewhere in the machine: pending at a port,
// or inside the interior.  Under a fault plan physical occupancy is the
// wrong notion — messages vanish on dropped links and stale wait records
// linger by design — so the tracker's ledger answers instead: requests
// issued but not yet delivered.
func (e *Endpoint[F]) InFlight() int {
	if e.trk != nil {
		return e.trk.Outstanding()
	}
	return e.Pending() + e.in.Occupancy()
}

// StallReport formats the watchdog diagnostic with the interior's queue
// snapshot — the state dump a failing soak prints next to its replay seed.
func (e *Endpoint[F]) StallReport() string {
	crashed := ""
	if e.flt != nil {
		crashed = e.flt.ActiveCrashes(e.wd.TripCycle())
	}
	return flow.StallReport(e.in.Name, e.wd, e.InFlight(), crashed, e.in.StallDetail())
}

// BuildSnapshot assembles the engine's snapshot around its interior
// counters and gauges: the port-side counters, the latency histogram and,
// under a fault plan, the fault and recovery block.
func (e *Endpoint[F]) BuildSnapshot(c Counters, gauges map[string]int64) stats.Snapshot {
	t := e.Tally()
	c.Cycles, c.Issued = t.Cycles, t.Issued
	c.Completed, c.Replies = t.Completed, t.Completed
	c.SaturationCycles, c.WatchdogTrips = t.SaturationCycles, t.WatchdogTrips
	gauges["saturation_max_streak"] = t.SaturationMaxStreak
	snap := stats.Snapshot{
		Engine:     e.in.Name,
		Counters:   c.Map(),
		Gauges:     gauges,
		Histograms: map[string]stats.HistogramSnapshot{"latency_cycles": e.lat.Snapshot()},
	}
	if e.flt != nil {
		faults.AddCounters(&snap, e.flt, e.trk, e.mem.TotalDedupHits(), e.orphans, e.rec.Counters())
	}
	return snap
}

// Run advances the machine the given number of cycles, stopping early if
// the progress watchdog trips (a stalled machine makes no further progress
// by definition; callers check Stalled / StallReport).  A parallel machine
// starts its persistent workers here, once per Run — not once per cycle —
// and retires them on return; a bare Step outside Run still works through
// the pool's spawn fallback.
func (e *Endpoint[F]) Run(cycles int) {
	if pool := e.in.Pool; pool != nil {
		pool.Start()
		defer pool.Stop()
	}
	for i := 0; i < cycles && !e.wd.Tripped(); i++ {
		e.in.Step()
	}
}

// Drain runs the machine until no requests remain in flight (injectors
// willing, i.e. they stop offering traffic), up to the given cycle bound.
// It reports whether the machine fully drained; a watchdog trip ends the
// drain at once, since no number of further cycles empties it.
func (e *Endpoint[F]) Drain(maxCycles int) bool {
	if pool := e.in.Pool; pool != nil {
		pool.Start()
		defer pool.Stop()
	}
	for i := 0; i < maxCycles; i++ {
		if e.wd.Tripped() {
			return false
		}
		e.in.Step()
		if e.InFlight() == 0 {
			return true
		}
	}
	return e.InFlight() == 0
}
