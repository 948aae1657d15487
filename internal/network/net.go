package network

import (
	"fmt"

	"combining/internal/core"
	"combining/internal/engine"
	"combining/internal/faults"
	"combining/internal/memory"
	"combining/internal/par"
	"combining/internal/rmw"
	"combining/internal/stats"
	"combining/internal/word"
)

// Config parameterizes a simulated machine: N processors, a staged network
// of log_k N columns of k×k combining switches, and N interleaved memory
// modules.  The wiring between columns comes from Topology (omega by
// default); everything else — switches, queues, flow control, faults, the
// parallel stepper — is wiring-independent.
type Config struct {
	// Topology selects the inter-stage wiring (engine.OmegaOf,
	// engine.FatTreeOf, ...).  nil means the paper's omega network.  When
	// set, Procs and Radix may be left 0 to adopt the topology's, and must
	// agree with it otherwise.
	Topology engine.Staged
	// Procs is N, a power of Radix ≥ Radix.
	Procs int
	// Radix is the switch degree k (default 2, the paper's concrete
	// design; 4 or 8 trade stages for per-switch contention).
	Radix int
	// QueueCap bounds each switch forward output queue; this finite
	// buffering is what produces tree saturation under hot spots.
	// Values < 0 mean unbounded.  Default 4.
	QueueCap int
	// RevQueueCap is the per-port base credit of each switch reverse
	// queue: replies are admitted only while every port sits below it, and
	// wait-buffer records then act as reserved credits for the decombining
	// fan-out (per-port occupancy ≤ RevQueueCap + WaitBufCap — see
	// switchNode.canAcceptReply and DESIGN.md).  0 defaults to QueueCap;
	// negative means unbounded (the pre-flow-control behavior).
	RevQueueCap int
	// MemQueueCap bounds each memory module's input queue, including the
	// request in service; a full module holds the last network stage
	// instead of absorbing unbounded backlog.  0 defaults to QueueCap;
	// negative means unbounded.
	MemQueueCap int
	// WatchdogCycles is the progress watchdog limit: with work in flight
	// and no message movement for this many cycles the machine declares
	// livelock/deadlock (Stalled() reports it, soaks fail fast with a
	// replayable seed).  0 defaults to 10000 — comfortably above the
	// fault plans' capped retry backoff — and negative disables it.
	WatchdogCycles int64
	// WaitBufCap bounds each switch's wait buffer: 0 disables combining
	// entirely, core.Unbounded removes the limit, and small positive
	// values give partial combining (ablation A1).
	WaitBufCap int
	// AllowReversal enables the Section 5.1 order-reversal optimization.
	AllowReversal bool
	// BuggyLoadForwarding enables the *incorrect* optimization Section
	// 5.1 warns against: when a load meets a queued store to the same
	// address, the load is answered immediately with the store's value
	// while the store continues to memory.  The load can then be
	// satisfied before the store occurs in memory, breaking
	// serializability; experiment E3 demonstrates the failure.
	BuggyLoadForwarding bool
	// MemService is the memory module service time in cycles (default 1).
	MemService int
	// Workers shards each cycle's switch, memory-module and delivery work
	// across this many goroutines (see internal/par and DESIGN.md §6).
	// 0 or 1 keep the single-threaded stepper.  Worker count is
	// unobservable in the simulation: every counter, histogram and reply
	// is byte-for-byte identical at any setting.  Tracing (Trace non-nil)
	// forces the serial stepper so event order stays the serial order.
	Workers int
	// Faults, when non-nil, arms the deterministic fault plan (see
	// internal/faults) and with it the full recovery layer: requests carry
	// representation leaves, memory modules keep reply caches, processors
	// retransmit on timeout with capped backoff, and duplicate replies are
	// suppressed at the ports.
	Faults *faults.Plan
	// Trace, when non-nil, observes every inject/combine/memory/
	// decombine/deliver event (see trace.go).  Tracing a long run is
	// expensive; it is meant for audits and walkthroughs.
	Trace func(Event)
}

// Validate reports whether the configuration is usable, with the
// documented zero-value defaults applied first.  All config policing
// funnels through the engine core's one Spec path; NewSim panics with the
// same error, so commands call Validate first and turn it into a one-line
// exit instead of a stack trace.
func (c Config) Validate() error {
	return c.normalize()
}

// normalize applies the defaults in place and validates the result.
func (c *Config) normalize() error {
	if c.Topology != nil {
		if c.Radix == 0 {
			c.Radix = c.Topology.Radix()
		}
		if c.Procs == 0 {
			c.Procs = c.Topology.Procs()
		}
	}
	if c.Radix == 0 {
		c.Radix = 2
	}
	if c.Radix < 2 {
		return fmt.Errorf("network: Radix must be >= 2, got %d", c.Radix)
	}
	spec := engine.Spec{
		Engine:      "network",
		Procs:       c.Procs,
		PowerOf:     c.Radix,
		Banks:       1,
		Workers:     c.Workers,
		Service:     c.MemService,
		TraceSerial: c.Trace != nil && c.Workers > 1,
		AdversarialSerial: c.Faults != nil && c.Faults.HasAdversarial() &&
			c.Workers > 1,
	}
	if c.Topology != nil {
		spec.Topology = c.Topology
		spec.TopologySize = c.Topology.Procs()
		spec.TopologyField = "processor count"
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	if c.Topology != nil && c.Radix != c.Topology.Radix() {
		return fmt.Errorf("network: Radix %d disagrees with the topology's radix (%d)",
			c.Radix, c.Topology.Radix())
	}
	if c.QueueCap == 0 {
		c.QueueCap = 4
	}
	if c.RevQueueCap == 0 {
		c.RevQueueCap = c.QueueCap
	}
	if c.MemQueueCap == 0 {
		c.MemQueueCap = c.QueueCap
	}
	if c.MemService == 0 {
		c.MemService = 1
	}
	if c.WatchdogCycles == 0 {
		c.WatchdogCycles = engine.DefaultWatchdogCycles
	}
	return nil
}

// Stats aggregates one simulation run.
type Stats struct {
	Cycles    int64
	Issued    int64
	Completed int64

	// Latency sums, split by traffic class for the tree-saturation
	// experiment (E9).
	LatencySum     int64
	HotCompleted   int64
	HotLatencySum  int64
	ColdCompleted  int64
	ColdLatencySum int64

	// Combines counts combine events across all switches; Rejects counts
	// combines refused because a wait buffer was full.
	Combines int64
	Rejects  int64

	// MaxOutQueue is the deepest forward queue observed; MaxRevQueue and
	// MaxMemQueue are the reverse-queue and memory-input high-water marks
	// the flow-control bounds are checked against.
	MaxOutQueue int
	MaxRevQueue int
	MaxMemQueue int

	// Backpressure accounting: HoldsRev counts replies held upstream by
	// the reserved-credit check, HoldsMem requests held at the last stage
	// by a full module, HoldsMemOut module completions held by a full
	// last-stage switch.
	HoldsRev, HoldsMem, HoldsMemOut int64

	// SaturationCycles counts cycles the queue tree was saturated end to
	// end (every stage had a full forward queue); SaturationMaxStreak is
	// the longest such run — the tree-saturation signature of E14.
	SaturationCycles    int64
	SaturationMaxStreak int64

	// WatchdogTrips is 1 if the progress watchdog declared a stall.
	WatchdogTrips int64

	// Checkpoints counts module checkpoints committed (crash plans only).
	Checkpoints int64

	// Latency is the round-trip histogram (cycles), recorded per
	// completion through the shared instrumentation subsystem.
	Latency stats.HistogramSnapshot

	// Traffic accounting (E11): link traversals and value slots moved,
	// in each direction.
	FwdHops, RevHops     int64
	FwdSlots, RevSlots   int64
	MemRequests, MemAcks int64
}

// Percentile returns the approximate q-quantile (0 < q ≤ 1) of the
// round-trip latency from the power-of-two histogram, interpolating
// within the bucket.
func (s Stats) Percentile(q float64) float64 { return s.Latency.Percentile(q) }

// MeanLatency returns average round-trip cycles over completed requests.
func (s Stats) MeanLatency() float64 {
	if s.Completed == 0 {
		return 0
	}
	return float64(s.LatencySum) / float64(s.Completed)
}

// ColdMeanLatency returns the mean latency of non-hot traffic.
func (s Stats) ColdMeanLatency() float64 {
	if s.ColdCompleted == 0 {
		return 0
	}
	return float64(s.ColdLatencySum) / float64(s.ColdCompleted)
}

// HotMeanLatency returns the mean latency of hot-spot traffic.
func (s Stats) HotMeanLatency() float64 {
	if s.HotCompleted == 0 {
		return 0
	}
	return float64(s.HotLatencySum) / float64(s.HotCompleted)
}

// Bandwidth returns completed memory operations per cycle.
func (s Stats) Bandwidth() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Completed) / float64(s.Cycles)
}

// Injection and Injector are the engine core's processor-port types under
// their historical names.
type (
	Injection = engine.Injection
	Injector  = engine.Injector
)

// Sim is the cycle-driven machine: the staged network of combining
// switches and the memory modules behind it.  The embedded Endpoint is
// the machine's edge — processor ports, faults, the terminal links,
// completion and the Run/Drain loop; Sim holds the interior.  Messages
// inside are slab handles (see netmsg.go).
type Sim struct {
	engine.Endpoint[handle]

	cfg    Config
	topo   engine.Staged // the wiring; all routing arithmetic lives here
	n      int           // processors
	k      int           // stages
	radix  int           // switch degree
	stages []column
	slab   *slab

	// meta maps each request inside a memory module to its slot, so the
	// module's reply finds its way back.  It is sharded per module: entry
	// meta[mod][id] is written by the stage-(k−1) switch feeding module
	// mod and consumed when that module's reply emerges, so under the
	// parallel stepper each shard has exactly one owner per phase.
	meta []map[word.ReqID]handle

	// stats holds the interior counters; the port-side ones live in the
	// endpoint and are folded in by Stats.
	stats Stats

	// stallMask caches this cycle's per-switch stall decisions so each
	// switch-cycle is counted once (fault plans only).  crashMask holds
	// this cycle's dead switches (crash plans only), filled serially at
	// the top of Step with edge detection — a rising edge flushes the
	// switch, a falling edge counts the restore — so every Workers width
	// sees identical crash schedules.
	stallMask [][]bool
	crashMask [][]bool

	// shards holds one cache-line-padded scratch shard per worker (one for
	// the serial stepper): the phases count statistics and free slots into
	// their worker's shard, and mergeShards folds them in serially at the
	// end of the cycle.
	shards []netShard

	// Parallel stepper state (Config.Workers > 1, nil/empty otherwise):
	// the worker pool (persistent workers bracketed by Run/Drain), the
	// phase barrier, the phase function handed to the pool each cycle
	// (bound once at construction so the cycle loop allocates no
	// closures), and the per-rotation-position stage-0 delivery buffers
	// replayed in serial order by worker 0.  See parallel.go and DESIGN.md
	// §6.
	pool     *par.Pool
	bar      par.Barrier
	stepFn   func(w int)
	delivBuf [][]delivery
	// Conflict-group partitions per stage, derived from the wiring at
	// construction (nil when serial); see engine.FwdGroups/RevGroups.
	fwdGroups [][][]int
	revGroups [][][]int
}

// NewSim builds a machine; injectors must supply exactly cfg.Procs entries.
func NewSim(cfg Config, inj []Injector) *Sim {
	if err := cfg.normalize(); err != nil {
		panic(err)
	}
	if len(inj) != cfg.Procs {
		panic(fmt.Sprintf("network: got %d injectors for %d processors", len(inj), cfg.Procs))
	}
	topo := cfg.Topology
	if topo == nil {
		topo = engine.OmegaOf(cfg.Procs, cfg.Radix)
	}
	n := cfg.Procs
	radix := cfg.Radix
	k := topo.Stages()
	sl := newSlab(k)
	stages := make([]column, k)
	for st := range stages {
		stages[st] = newColumn(st, n/radix, &cfg, sl)
	}
	meta := make([]map[word.ReqID]handle, n)
	for i := range meta {
		meta[i] = make(map[word.ReqID]handle)
	}
	s := &Sim{
		cfg:    cfg,
		topo:   topo,
		n:      n,
		k:      k,
		radix:  radix,
		stages: stages,
		slab:   sl,
		meta:   meta,
		shards: make([]netShard, 1),
	}
	if cfg.Faults != nil {
		s.stallMask = newMask(k, n/radix)
		if cfg.Faults.HasCrashes() {
			s.crashMask = newMask(k, n/radix)
		}
	}
	// Validation rejected Workers > 1 with tracing on, so reaching here
	// with a pool means the serial fallback can no longer happen silently.
	if cfg.Workers > 1 {
		s.pool = par.NewPool(cfg.Workers)
		s.bar = par.NewBarrier(s.pool.Workers())
		s.stepFn = s.phaseWorker
		s.shards = make([]netShard, s.pool.Workers())
		s.delivBuf = make([][]delivery, n/radix)
		s.fwdGroups = make([][][]int, k)
		s.revGroups = make([][][]int, k)
		for st := 0; st+1 < k; st++ {
			s.fwdGroups[st] = engine.FwdGroups(topo, st)
		}
		for st := 1; st < k; st++ {
			s.revGroups[st] = engine.RevGroups(topo, st)
		}
	}
	memOpts := []memory.Option{memory.WithServiceTime(cfg.MemService)}
	if cfg.MemQueueCap > 0 {
		memOpts = append(memOpts, memory.WithQueueCap(cfg.MemQueueCap))
	}
	setup := engine.Setup[handle]{
		Name:        "network",
		Injectors:   inj,
		Modules:     n,
		MemOpts:     memOpts,
		Faults:      cfg.Faults,
		Watchdog:    cfg.WatchdogCycles,
		Pool:        s.pool,
		Step:        s.Step,
		Occupancy:   s.occupancy,
		StallDetail: s.stallDetail,
		Req:         sl.reqOf,
		File:        func(mod int, h handle) { s.metaInsert(mod, h, &s.shards[0]) },
		Drop:        sl.put,
		MemSite:     func(mod int) uint64 { return faults.Site(k, mod, 0) },
		ProcSite:    func(proc int) uint64 { return faults.Site(0, proc, 0) },
	}
	if cfg.Trace != nil {
		setup.Issued = func(proc int, req core.Request) {
			cfg.Trace(Event{Cycle: s.Cycle(), Kind: EvInject,
				ID: req.ID, Addr: req.Addr, Stage: -1, Switch: proc})
		}
		setup.Delivered = func(proc int, rep core.Reply) {
			cfg.Trace(Event{Cycle: s.Cycle(), Kind: EvDeliver,
				ID: rep.ID, Stage: -1, Switch: proc})
		}
		for st := range stages {
			stages[st].now = s.Cycle
		}
	}
	s.Init(setup)
	return s
}

// newMask allocates a per-switch flag grid.
func newMask(stages, width int) [][]bool {
	m := make([][]bool, stages)
	for i := range m {
		m[i] = make([]bool, width)
	}
	return m
}

// Topology exposes the wiring the machine was built with.
func (s *Sim) Topology() engine.Staged { return s.topo }

// outPortFor selects the switch output port at a stage by the topology's
// destination-tag routing rule.
func (s *Sim) outPortFor(stage int, dst int) int {
	return s.topo.OutPort(stage, dst)
}

// Step advances the machine one cycle.
func (s *Sim) Step() {
	s.StartCycle()
	if s.stallMask != nil {
		flt := s.Faults()
		for stage := range s.stallMask {
			for si := range s.stallMask[stage] {
				s.stallMask[stage][si] = flt.Stalled(stage, si, s.Cycle())
			}
		}
		if s.crashMask != nil {
			s.updateCrashState()
		}
	}
	s.Redrive()
	if s.pool != nil {
		s.pool.Run(s.stepFn)
	} else {
		sh := &s.shards[0]
		s.drainReverse(sh)
		s.tickMemory(sh)
		s.drainForward(sh)
	}
	s.mergeShards()
	s.injectAll()
	s.EndCycle(s.treeSaturated(), s.stats.FwdHops+s.stats.RevHops+s.stats.MemAcks)
}

// updateCrashState advances the switch crash masks, then the modules'.  A
// rising edge flushes the switch's volatile state and records the lost
// in-flight operations; the restart rejoins it empty.
func (s *Sim) updateCrashState() {
	flt := s.Faults()
	for stage := range s.crashMask {
		for si := range s.crashMask[stage] {
			if s.CrashEdge(flt.SwitchCrashed(stage, si, s.Cycle()), &s.crashMask[stage][si]) {
				s.Lost(s.stages[stage].crash(si))
			}
		}
	}
	for mod := 0; mod < s.n; mod++ {
		s.ModuleEdge(mod)
	}
}

// swDead reports whether the switch at (stage, idx) is crashed this cycle.
func (s *Sim) swDead(stage, idx int) bool {
	return s.crashMask != nil && s.crashMask[stage][idx]
}

// treeSaturated reports whether the queue tree is saturated end to end this
// cycle: every stage holds at least one forward queue at capacity.  A full
// queue at one stage is ordinary queueing; full queues at every stage mean
// hot-spot backpressure has propagated from the memory modules back to the
// injection ports — Pfister & Norton's tree saturation.
func (s *Sim) treeSaturated() bool {
	qc := s.cfg.QueueCap
	if qc <= 0 {
		return false // unbounded queues never fill
	}
	for st := range s.stages {
		col := &s.stages[st]
		full := false
		for si, n := range col.nOut {
			if int(n) < qc {
				continue // too few messages for any port to be full
			}
			for _, q := range col.ports(col.outQ, si) {
				if len(q) >= qc {
					full = true
					break
				}
			}
			if full {
				break
			}
		}
		if !full {
			return false
		}
	}
	return true
}

// stallDetail is the network's part of the stall report: per-stage queue
// and wait-buffer occupancy and the memory backlog.
func (s *Sim) stallDetail() string {
	detail := fmt.Sprintf("pending=%d meta=%d", s.Pending(), s.metaCount())
	for st := range s.stages {
		col := &s.stages[st]
		fwd, rev, wait := 0, 0, 0
		for i := range col.sw {
			fwd += int(col.nOut[i])
			rev += int(col.nRev[i])
			wait += col.sw[i].wait.Len()
		}
		detail += fmt.Sprintf("\nstage %d: fwd=%d rev=%d wait=%d", st, fwd, rev, wait)
	}
	memQ := 0
	for mod := 0; mod < s.n; mod++ {
		memQ += s.Memory().Module(mod).QueueLen()
	}
	return detail + fmt.Sprintf("\nmemory queued=%d", memQ)
}

// metaInsert files the request in slot h under its module shard.  A
// retransmit that reaches memory while an earlier copy of the same id is
// still inside displaces that copy's entry; the displaced slot is freed
// here, and the reply that copy's module later emits is the orphan.
func (s *Sim) metaInsert(mod int, h handle, sh *netShard) {
	id := s.slab.msgs[h].req.ID
	if old, dup := s.meta[mod][id]; dup {
		s.release(sh, old)
	}
	s.meta[mod][id] = h
}

// metaCount sums the per-module metadata shards (requests in memory).
func (s *Sim) metaCount() int {
	n := 0
	for _, shard := range s.meta {
		n += len(shard)
	}
	return n
}

// release frees slot h from inside a phase: the slot is cleared now and
// joins the free list when the shards merge.
func (s *Sim) release(sh *netShard, h handle) {
	s.slab.clear(h)
	sh.freed = append(sh.freed, h)
}

// drainReverse moves one reply per reverse link per cycle, destination side
// first so each reply advances at most one hop per cycle.  Switch and port
// order rotate with the cycle so contending streams share a downstream
// queue fairly (round-robin arbitration, as in real switches).
func (s *Sim) drainReverse(sh *netShard) {
	rot := int(s.Cycle())
	n0 := len(s.stages[0].sw)
	for si, idx := 0, rot%n0; si < n0; si, idx = si+1, idx+1 {
		if idx == n0 {
			idx = 0
		}
		s.revSwitch0(idx, sh, nil)
	}
	for stage := 1; stage < s.k; stage++ {
		ns := len(s.stages[stage].sw)
		for si, idx := 0, rot%ns; si < ns; si, idx = si+1, idx+1 {
			if idx == ns {
				idx = 0
			}
			s.revSwitch(stage, idx, sh)
		}
	}
}

// revSwitch0 makes the reverse move for one stage-0 switch: pop one reply
// per port and deliver it to its processor.  Stage 0 touches no other
// switch, so under the parallel stepper every stage-0 switch is its own
// conflict group; deliveries are appended to sink (when non-nil) for the
// serial replay instead of delivered inline, because injectors and the
// retry tracker are single-goroutine.
func (s *Sim) revSwitch0(idx int, sh *netShard, sink *[]delivery) {
	col := &s.stages[0]
	if col.nRev[idx] == 0 {
		return // nothing queued: the switch is not touched
	}
	if s.stallMask != nil && s.stallMask[0][idx] {
		return // blacked-out switch moves nothing this cycle
	}
	if s.swDead(0, idx) {
		return // crashed switch moves nothing until it restarts
	}
	flt := s.Faults()
	for pi, port := 0, int(s.Cycle())%s.radix; pi < s.radix; pi, port = pi+1, port+1 {
		if port == s.radix {
			port = 0
		}
		inLine := idx*s.radix + port
		if len(col.revQ[inLine]) == 0 {
			continue
		}
		h := col.popRev(idx, port)
		if flt != nil && s.dropReply(0, idx, port, h) {
			s.release(sh, h)
			continue // reply lost on the reverse link
		}
		sh.st.RevHops++
		sh.st.RevSlots += int64(s.slab.routes[h].rvals)
		proc := s.topo.LineProc(inLine)
		if sink != nil {
			*sink = append(*sink, delivery{proc: proc, h: h})
			continue
		}
		s.deliver(proc, h, sh)
	}
}

// revSwitch makes the reverse move for one switch of stage ≥ 1: pop one
// reply per port and hand it to the previous-stage switch when its reserved
// credits allow.  The previous-stage switches of stage-s switch idx are
// idx/radix + port·(n/radix²), so exactly the radix switches sharing
// idx/radix touch the same previous-stage set — the conflict groups the
// parallel stepper partitions on.
func (s *Sim) revSwitch(stage, idx int, sh *netShard) {
	col := &s.stages[stage]
	if col.nRev[idx] == 0 {
		return // nothing queued: the switch is not touched
	}
	if s.stallMask != nil && s.stallMask[stage][idx] {
		return // blacked-out switch moves nothing this cycle
	}
	if s.swDead(stage, idx) {
		return // crashed switch moves nothing until it restarts
	}
	prev := &s.stages[stage-1]
	flt := s.Faults()
	for pi, port := 0, int(s.Cycle())%s.radix; pi < s.radix; pi, port = pi+1, port+1 {
		if port == s.radix {
			port = 0
		}
		inLine := idx*s.radix + port
		if len(col.revQ[inLine]) == 0 {
			continue
		}
		prevLine := s.topo.PrevLine(stage, inLine)
		prevIdx := prevLine / s.radix
		if s.swDead(stage-1, prevIdx) {
			// Downstream switch is dead: hold the reply here so the crash
			// costs only the flushed state, not a stream of new losses.
			sh.st.HoldsRev++
			continue
		}
		if !prev.canAcceptReply(prevIdx) {
			// Downstream reverse credits exhausted: hold the reply here.
			// Stage order is ascending, so the credits this pop would need
			// were already replenished this cycle if the downstream switch
			// moved anything.
			sh.st.HoldsRev++
			continue
		}
		h := col.popRev(idx, port)
		if flt != nil && s.dropReply(stage, idx, port, h) {
			s.release(sh, h)
			continue // reply lost on the reverse link
		}
		sh.st.RevHops++
		sh.st.RevSlots += int64(s.slab.routes[h].rvals)
		prev.acceptReply(prevIdx, h)
	}
}

// dropReply draws the fault plan's verdict on the reply in slot h crossing
// the reverse link out of port port of switch idx at stage.
func (s *Sim) dropReply(stage, idx, port int, h handle) bool {
	flt, rep := s.Faults(), &s.slab.msgs[h].rep
	return flt.DropReply(faults.Site(stage, idx, port), rep.ID, rep.Attempt) ||
		flt.DropLinkRev(stage, idx, s.Cycle())
}

// deliver hands the reply in slot h, which left stage 0, to the endpoint.
// The slot is freed first: the delivery is a value, so the endpoint's reply
// link, which may duplicate it, never sees a handle.
func (s *Sim) deliver(proc int, h handle, sh *netShard) {
	m := &s.slab.msgs[h]
	d := engine.Delivery{Rep: m.rep, Proc: proc, Issue: m.issue, Hot: m.hot}
	s.release(sh, h)
	s.Deliver(d)
}

// tickMemory advances every module and feeds completed replies into the
// reverse side of the last stage.
func (s *Sim) tickMemory(sh *netShard) {
	for mod := 0; mod < s.n; mod++ {
		s.tickModule(mod, sh)
	}
}

// tickModule advances one module one cycle.  A module touches only its own
// metadata shard and the last-stage switch mod/radix, so the radix modules
// behind one last-stage switch form a conflict group under the parallel
// stepper.  The module's reply travels in the slot its request was filed
// under, so the memory phase never takes a slot.
func (s *Sim) tickModule(mod int, sh *netShard) {
	if s.ModDead(mod) {
		return // crashed module serves nothing until it restarts
	}
	md := s.Memory().Module(mod)
	if s.CheckpointDue() {
		// Commit the module's recovery image: executed-but-uncommitted
		// leaves join the committed cache and withheld replies become
		// releasable (output commit) — see memory.Module.Checkpoint.
		md.Checkpoint()
		sh.st.Checkpoints++
	}
	flt := s.Faults()
	if flt != nil && flt.MemStalled(mod, s.Cycle()) {
		return // module inside a slowdown window serves nothing
	}
	last := &s.stages[s.k-1]
	if !last.canAcceptReply(mod / s.radix) {
		// The last-stage switch has no reverse credit: the module's
		// output port is blocked, so it holds its completed request
		// rather than emitting a reply with nowhere to go.
		sh.st.HoldsMemOut++
		return
	}
	if flt == nil && len(s.meta[mod]) == 0 {
		// On a healthy machine every request inside a module is filed
		// here, so an empty shard is an idle module: its Tick would
		// change nothing.
		return
	}
	rep, ok := md.Tick()
	if !ok {
		return
	}
	sh.st.MemAcks++
	h, found := s.meta[mod][rep.ID]
	if !found {
		if flt != nil {
			// Expected under retransmission: when an original and a
			// retransmit both reach memory, the first reply consumes
			// the metadata and the second becomes an orphan.
			sh.orphans++
			return
		}
		panic(fmt.Sprintf("network: cycle %d, module %d: reply id %d (%v) with no request metadata",
			s.Cycle(), mod, rep.ID, rep))
	}
	delete(s.meta[mod], rep.ID)
	m := &s.slab.msgs[h]
	if s.cfg.Trace != nil {
		s.cfg.Trace(Event{Cycle: s.Cycle(), Kind: EvMemServe,
			ID: rep.ID, Addr: m.req.Addr, Stage: -1, Switch: mod})
	}
	m.rep = rep
	s.slab.routes[h].rvals = boolSlots(rmw.NeedsValue(m.req.Op))
	last.acceptReply(mod/s.radix, h)
}

// drainForward moves one request per forward link per cycle, memory side
// first, with round-robin switch/port arbitration as in drainReverse.
func (s *Sim) drainForward(sh *netShard) {
	rot := int(s.Cycle())
	for stage := s.k - 1; stage >= 0; stage-- {
		ns := len(s.stages[stage].sw)
		for si, idx := 0, rot%ns; si < ns; si, idx = si+1, idx+1 {
			if idx == ns {
				idx = 0
			}
			s.fwdSwitch(stage, idx, sh)
		}
	}
}

// fwdSwitch makes the forward move for one switch: one request per output
// port, into the memory modules (last stage) or the next stage.  A
// last-stage switch touches only its own radix modules and their metadata
// shards — no cross-switch sharing; an earlier-stage switch idx feeds the
// next-stage switches (idx mod n/radix²)·radix + port, so exactly the radix
// switches congruent mod n/radix² share a next-stage set — the strided
// conflict groups the parallel stepper partitions on.
func (s *Sim) fwdSwitch(stage, idx int, sh *netShard) {
	col := &s.stages[stage]
	if col.nOut[idx] == 0 {
		return // nothing queued: the switch is not touched
	}
	if s.stallMask != nil && s.stallMask[stage][idx] {
		return // blacked-out switch moves nothing this cycle
	}
	if s.swDead(stage, idx) {
		return // crashed switch moves nothing until it restarts
	}
	st := &sh.st
	flt := s.Faults()
	for pi, port := 0, int(s.Cycle())%s.radix; pi < s.radix; pi, port = pi+1, port+1 {
		if port == s.radix {
			port = 0
		}
		outLine := idx*s.radix + port
		if len(col.outQ[outLine]) == 0 {
			continue
		}
		h := col.outQ[outLine][0]
		rt := s.slab.routes[h]
		if stage == s.k-1 {
			// The link into module outLine.
			if s.ModDead(outLine) {
				// Dead module: hold the request in the switch — it was
				// flushed once at the crash; nothing new is fed to it.
				st.HoldsMem++
				continue
			}
			md := s.Memory().Module(outLine)
			if !md.CanEnqueue() {
				// Bounded module input full: hold the request in
				// the switch — the backpressure that turns a hot
				// module into tree saturation instead of unbounded
				// memory-side buffering.
				st.HoldsMem++
				continue
			}
			col.popFwd(idx, port)
			if flt != nil && s.dropForward(s.k, outLine, 0, h) {
				s.release(sh, h)
				continue // request lost on the memory link
			}
			st.FwdHops++
			st.FwdSlots += int64(rt.fvals)
			if s.Adversarial() {
				s.MemLink(outLine, h)
				continue
			}
			st.MemRequests++
			s.metaInsert(outLine, h, sh)
			md.Enqueue(s.slab.msgs[h].req)
			continue
		}
		nextLine := s.topo.NextLine(stage, outLine)
		nextIdx := nextLine / s.radix
		if s.swDead(stage+1, nextIdx) {
			continue // dead downstream switch: hold the request here
		}
		if flt != nil && s.dropForward(stage+1, nextIdx, nextLine%s.radix, h) {
			col.popFwd(idx, port)
			s.release(sh, h)
			continue // request lost on the inter-stage link
		}
		next := &s.stages[stage+1]
		if next.tryAccept(nextIdx, h, s.outPortFor(stage+1, int(rt.dst)), uint8(nextLine%s.radix), st) {
			col.popFwd(idx, port)
			st.FwdHops++
			st.FwdSlots += int64(rt.fvals)
		}
	}
}

// dropForward draws the fault plan's verdict on the request in slot h
// crossing the forward link into port port of switch idx at stage (stage k
// is the memory side).
func (s *Sim) dropForward(stage, idx, port int, h handle) bool {
	flt, req := s.Faults(), &s.slab.msgs[h].req
	return flt.DropForward(faults.Site(stage, idx, port), req.ID, req.Attempt) ||
		flt.DropLinkFwd(stage, idx, s.Cycle())
}

// injectAll offers each processor port's message to stage 0, in rotating
// order so no processor port permanently outranks another.  A message
// takes its slab slot for its admission attempt; a refused attempt frees
// it again.
func (s *Sim) injectAll() {
	rot := int(s.Cycle())
	flt := s.Faults()
	col := &s.stages[0]
	for pi, p := 0, rot%s.n; pi < s.n; pi, p = pi+1, p+1 {
		if p == s.n {
			p = 0
		}
		m, retry, ok := s.Offer(p)
		if !ok {
			continue
		}
		line := s.topo.ProcLine(p)
		si, port := line/s.radix, line%s.radix
		if s.swDead(0, si) {
			continue // dead stage-0 switch: hold the request at the port
		}
		if flt != nil && (flt.DropForward(faults.Site(0, si, port), m.Req.ID, m.Req.Attempt) ||
			flt.DropLinkFwd(0, si, s.Cycle())) {
			s.Take(p, retry) // lost on the processor-to-stage-0 link
			continue
		}
		h := s.slab.get()
		sm := &s.slab.msgs[h]
		sm.req, sm.issue, sm.hot = m.Req, m.Issue, m.Hot
		dst := s.Memory().HomeOf(m.Req.Addr)
		fvals := uint8(core.ValueSlots(m.Req.Op))
		s.slab.routes[h] = route{addr: m.Req.Addr, dst: int32(dst), fvals: fvals}
		if !col.tryAccept(si, h, s.outPortFor(0, dst), uint8(port), &s.stats) {
			s.slab.put(h)
			continue
		}
		s.stats.FwdHops++
		s.stats.FwdSlots += int64(fvals)
		s.Take(p, retry)
	}
}

// Stats snapshots the run statistics, folding in the endpoint's port-side
// counters and the per-switch counters.
func (s *Sim) Stats() Stats {
	st := s.stats
	t := s.Tally()
	st.Cycles, st.Issued, st.Completed, st.LatencySum = t.Cycles, t.Issued, t.Completed, t.LatencySum
	st.HotCompleted, st.HotLatencySum = t.HotCompleted, t.HotLatencySum
	st.ColdCompleted, st.ColdLatencySum = t.ColdCompleted, t.ColdLatencySum
	st.SaturationCycles, st.SaturationMaxStreak = t.SaturationCycles, t.SaturationMaxStreak
	st.WatchdogTrips = t.WatchdogTrips
	st.MemRequests += s.LinkEnqueued()
	st.Latency = s.Latency()
	for c := range s.stages {
		for i := range s.stages[c].sw {
			sw := &s.stages[c].sw[i]
			st.Rejects += sw.wait.Rejections
			if sw.maxRev > st.MaxRevQueue {
				st.MaxRevQueue = sw.maxRev
			}
		}
	}
	st.MaxMemQueue = s.Memory().MaxQueueDepth()
	return st
}

// Snapshot captures the run's instrumentation behind the shared
// cross-engine API (see internal/stats).
func (s *Sim) Snapshot() stats.Snapshot {
	st := s.Stats()
	return s.BuildSnapshot(engine.Counters{
		HotCompleted:   st.HotCompleted,
		ColdCompleted:  st.ColdCompleted,
		Combines:       st.Combines,
		CombineRejects: st.Rejects,
		FwdHops:        st.FwdHops,
		RevHops:        st.RevHops,
		FwdSlots:       st.FwdSlots,
		RevSlots:       st.RevSlots,
		MemRequests:    st.MemRequests,
		MemAcks:        st.MemAcks,
		HoldsRev:       st.HoldsRev,
		HoldsMem:       st.HoldsMem,
		HoldsMemOut:    st.HoldsMemOut,
		Checkpoints:    st.Checkpoints,
	}, map[string]int64{
		"max_out_queue": int64(st.MaxOutQueue),
		"max_rev_queue": int64(st.MaxRevQueue),
		"max_mem_queue": int64(st.MaxMemQueue),
	})
}

// occupancy counts the messages inside the network: queued in switches,
// parked in wait buffers, or in memory.  Each of them holds exactly one
// slab slot, so the count is the slab's live slots.
func (s *Sim) occupancy() int { return s.slab.live() }
