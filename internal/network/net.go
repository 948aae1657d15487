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
// completion and the Run/Drain loop; Sim holds the interior.
type Sim struct {
	engine.Endpoint[fwdMsg]

	cfg    Config
	topo   engine.Staged // the wiring; all routing arithmetic lives here
	n      int           // processors
	k      int           // stages
	radix  int           // switch degree
	stages [][]*switchNode

	// pathFree recycles delivered replies' path headers back to the
	// injection path (getPath/putPath).  Every array holds capacity for
	// all k stages, so the appends along the forward path never regrow
	// one — the steady-state cycle path allocates nothing.  Only
	// single-goroutine phases touch it (injection, worker-0 delivery
	// commit).
	pathFree [][]uint8
	// meta preserves message metadata across the memory module, which
	// only transports core requests.  It is sharded per module: entry
	// meta[mod][id] is written by the stage-(k−1) switch feeding module
	// mod and consumed when that module's reply emerges, so under the
	// parallel stepper each shard has exactly one owner per phase.  The
	// values are boxed: fwdMsg is larger than a map's inline-value limit,
	// so storing it directly would heap-allocate a hidden box on every
	// insert — instead metaFree recycles the boxes per module (same
	// single-owner sharding as meta itself), keeping the steady-state
	// memory handoff allocation-free.
	meta     []map[word.ReqID]*fwdMsg
	metaFree [][]*fwdMsg

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

	// Parallel stepper state (Config.Workers > 1, nil/empty otherwise):
	// the worker pool (persistent workers bracketed by Run/Drain), the
	// phase barrier, the phase function handed to the pool each cycle
	// (bound once at construction so the cycle loop allocates no
	// closures), one cache-line-padded stats shard per worker merged
	// serially after the phases, and the per-rotation-position stage-0
	// delivery buffers replayed in serial order by worker 0.  See
	// parallel.go and DESIGN.md §6.
	pool     *par.Pool
	bar      par.Barrier
	stepFn   func(w int)
	shards   []netShard
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
	pol := core.Policy{AllowReversal: cfg.AllowReversal}
	stages := make([][]*switchNode, k)
	for s := range stages {
		stages[s] = make([]*switchNode, n/radix)
		for i := range stages[s] {
			stages[s][i] = newSwitch(s, i, radix, cfg.QueueCap, cfg.RevQueueCap, cfg.WaitBufCap, pol, cfg.BuggyLoadForwarding)
		}
	}
	meta := make([]map[word.ReqID]*fwdMsg, n)
	for i := range meta {
		meta[i] = make(map[word.ReqID]*fwdMsg)
	}
	s := &Sim{
		cfg:      cfg,
		topo:     topo,
		n:        n,
		k:        k,
		radix:    radix,
		stages:   stages,
		meta:     meta,
		metaFree: make([][]*fwdMsg, n),
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
	setup := engine.Setup[fwdMsg]{
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
		Req:         fwdReq,
		File:        s.metaInsert,
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
		for _, stage := range stages {
			for _, sw := range stage {
				sw.trace = cfg.Trace
				sw.now = s.Cycle
			}
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

// destModule is the home module of an address.
func (s *Sim) destModule(addr word.Addr) int { return s.Memory().HomeOf(addr) }

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
		s.runPhases()
	} else {
		s.drainReverse()
		s.tickMemory()
		s.drainForward()
	}
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
				s.Lost(s.stages[stage][si].crash())
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
	if s.cfg.QueueCap <= 0 {
		return false // unbounded queues never fill
	}
	for _, stage := range s.stages {
		full := false
		for _, sw := range stage {
			for port := 0; port < s.radix && !full; port++ {
				full = len(sw.outQ[port]) >= s.cfg.QueueCap
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
	for st, stage := range s.stages {
		fwd, rev, wait := 0, 0, 0
		for _, sw := range stage {
			for port := 0; port < s.radix; port++ {
				fwd += len(sw.outQ[port])
				rev += len(sw.revQ[port])
			}
			wait += sw.wait.Len()
		}
		detail += fmt.Sprintf("\nstage %d: fwd=%d rev=%d wait=%d", st, fwd, rev, wait)
	}
	memQ := 0
	for mod := 0; mod < s.n; mod++ {
		memQ += s.Memory().Module(mod).QueueLen()
	}
	return detail + fmt.Sprintf("\nmemory queued=%d", memQ)
}

// metaInsert files a request's metadata under its module shard, reusing a
// recycled box so the steady-state insert allocates nothing.  The free
// list shares meta's ownership partition: the stage-(k−1) switch phase
// and the memory phase split over the same index range, so module mod's
// list is only ever touched by the worker owning switch mod/radix.
func (s *Sim) metaInsert(mod int, m fwdMsg) {
	var box *fwdMsg
	if free := s.metaFree[mod]; len(free) > 0 {
		box = free[len(free)-1]
		s.metaFree[mod] = free[:len(free)-1]
	} else {
		box = new(fwdMsg)
	}
	*box = m
	s.meta[mod][m.req.ID] = box
}

// metaCount sums the per-module metadata shards (requests in memory).
func (s *Sim) metaCount() int {
	n := 0
	for _, shard := range s.meta {
		n += len(shard)
	}
	return n
}

// drainReverse moves one reply per reverse link per cycle, destination side
// first so each reply advances at most one hop per cycle.  Switch and port
// order rotate with the cycle so contending streams share a downstream
// queue fairly (round-robin arbitration, as in real switches).
func (s *Sim) drainReverse() {
	rot := int(s.Cycle())
	n0 := len(s.stages[0])
	for si := 0; si < n0; si++ {
		s.revSwitch0((si+rot)%n0, &s.stats, nil)
	}
	for stage := 1; stage < s.k; stage++ {
		ns := len(s.stages[stage])
		for si := 0; si < ns; si++ {
			s.revSwitch(stage, (si+rot)%ns, &s.stats)
		}
	}
}

// revSwitch0 makes the reverse move for one stage-0 switch: pop one reply
// per port and deliver it to its processor.  Stage 0 touches no other
// switch, so under the parallel stepper every stage-0 switch is its own
// conflict group; deliveries are appended to sink (when non-nil) for the
// serial replay instead of delivered inline, because injectors and the
// retry tracker are single-goroutine.
func (s *Sim) revSwitch0(idx int, st *Stats, sink *[]delivery) {
	if s.stallMask != nil && s.stallMask[0][idx] {
		return // blacked-out switch moves nothing this cycle
	}
	if s.swDead(0, idx) {
		return // crashed switch moves nothing until it restarts
	}
	sw := s.stages[0][idx]
	rot := int(s.Cycle())
	flt := s.Faults()
	for pi := 0; pi < s.radix; pi++ {
		port := (pi + rot) % s.radix
		if len(sw.revQ[port]) == 0 {
			continue
		}
		inLine := sw.index*s.radix + port
		r := sw.popRev(port)
		if flt != nil && (flt.DropReply(
			faults.Site(0, sw.index, port), r.rep.ID, r.rep.Attempt) ||
			flt.DropLinkRev(0, sw.index, s.Cycle())) {
			continue // reply lost on the reverse link
		}
		st.RevHops++
		st.RevSlots += int64(r.slots)
		proc := s.topo.LineProc(inLine)
		if sink != nil {
			*sink = append(*sink, delivery{proc: proc, r: r})
			continue
		}
		s.deliver(proc, r)
	}
}

// revSwitch makes the reverse move for one switch of stage ≥ 1: pop one
// reply per port and hand it to the previous-stage switch when its reserved
// credits allow.  The previous-stage switches of stage-s switch idx are
// idx/radix + port·(n/radix²), so exactly the radix switches sharing
// idx/radix touch the same previous-stage set — the conflict groups the
// parallel stepper partitions on.
func (s *Sim) revSwitch(stage, idx int, st *Stats) {
	if s.stallMask != nil && s.stallMask[stage][idx] {
		return // blacked-out switch moves nothing this cycle
	}
	if s.swDead(stage, idx) {
		return // crashed switch moves nothing until it restarts
	}
	sw := s.stages[stage][idx]
	rot := int(s.Cycle())
	flt := s.Faults()
	for pi := 0; pi < s.radix; pi++ {
		port := (pi + rot) % s.radix
		if len(sw.revQ[port]) == 0 {
			continue
		}
		inLine := sw.index*s.radix + port
		prevLine := s.topo.PrevLine(stage, inLine)
		prev := s.stages[stage-1][prevLine/s.radix]
		if s.swDead(stage-1, prevLine/s.radix) {
			// Downstream switch is dead: hold the reply here so the crash
			// costs only the flushed state, not a stream of new losses.
			st.HoldsRev++
			continue
		}
		if !prev.canAcceptReply() {
			// Downstream reverse credits exhausted: hold the reply here.
			// Stage order is ascending, so the credits this pop would need
			// were already replenished this cycle if the downstream switch
			// moved anything.
			st.HoldsRev++
			continue
		}
		r := sw.popRev(port)
		if flt != nil && (flt.DropReply(
			faults.Site(stage, sw.index, port), r.rep.ID, r.rep.Attempt) ||
			flt.DropLinkRev(stage, sw.index, s.Cycle())) {
			continue // reply lost on the reverse link
		}
		st.RevHops++
		st.RevSlots += int64(r.slots)
		prev.acceptReply(r)
	}
}

// deliver hands a reply that left stage 0 to the endpoint.  Its path
// header, empty by now, returns to the injection pool first — before the
// reply link, which may duplicate the reply, so each header recycles once.
func (s *Sim) deliver(proc int, r revMsg) {
	s.putPath(r.path)
	s.Deliver(engine.Delivery{Rep: r.rep, Proc: proc, Issue: r.issueCycle, Hot: r.hot})
}

// tickMemory advances every module and feeds completed replies into the
// reverse side of the last stage.
func (s *Sim) tickMemory() {
	var orphans int64
	for mod := 0; mod < s.n; mod++ {
		s.tickModule(mod, &s.stats, &orphans)
	}
	s.AddOrphans(orphans)
}

// tickModule advances one module one cycle.  A module touches only its own
// metadata shard and the last-stage switch mod/radix, so the radix modules
// behind one last-stage switch form a conflict group under the parallel
// stepper; orphans accumulate through the pointer so each worker's count
// stays on its own shard.
func (s *Sim) tickModule(mod int, st *Stats, orphans *int64) {
	if s.ModDead(mod) {
		return // crashed module serves nothing until it restarts
	}
	md := s.Memory().Module(mod)
	if s.CheckpointDue() {
		// Commit the module's recovery image: executed-but-uncommitted
		// leaves join the committed cache and withheld replies become
		// releasable (output commit) — see memory.Module.Checkpoint.
		md.Checkpoint()
		st.Checkpoints++
	}
	flt := s.Faults()
	if flt != nil && flt.MemStalled(mod, s.Cycle()) {
		return // module inside a slowdown window serves nothing
	}
	sw := s.stages[s.k-1][mod/s.radix]
	if !sw.canAcceptReply() {
		// The last-stage switch has no reverse credit: the module's
		// output port is blocked, so it holds its completed request
		// rather than emitting a reply with nowhere to go.
		st.HoldsMemOut++
		return
	}
	rep, ok := md.Tick()
	if !ok {
		return
	}
	st.MemAcks++
	box, found := s.meta[mod][rep.ID]
	if !found {
		if flt != nil {
			// Expected under retransmission: when an original and a
			// retransmit both reach memory, the first reply consumes
			// the metadata and the second becomes an orphan.
			*orphans++
			return
		}
		panic(fmt.Sprintf("network: cycle %d, module %d: reply id %d (%v) with no request metadata",
			s.Cycle(), mod, rep.ID, rep))
	}
	m := *box
	*box = fwdMsg{}
	s.metaFree[mod] = append(s.metaFree[mod], box)
	delete(s.meta[mod], rep.ID)
	if s.cfg.Trace != nil {
		s.cfg.Trace(Event{Cycle: s.Cycle(), Kind: EvMemServe,
			ID: rep.ID, Addr: m.req.Addr, Stage: -1, Switch: mod})
	}
	sw.acceptReply(revMsg{
		rep:        rep,
		path:       m.path,
		issueCycle: m.issueCycle,
		hot:        m.hot,
		slots:      boolSlots(rmw.NeedsValue(m.req.Op)),
	})
}

// drainForward moves one request per forward link per cycle, memory side
// first, with round-robin switch/port arbitration as in drainReverse.
func (s *Sim) drainForward() {
	rot := int(s.Cycle())
	for stage := s.k - 1; stage >= 0; stage-- {
		ns := len(s.stages[stage])
		for si := 0; si < ns; si++ {
			s.fwdSwitch(stage, (si+rot)%ns, &s.stats)
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
func (s *Sim) fwdSwitch(stage, idx int, st *Stats) {
	if s.stallMask != nil && s.stallMask[stage][idx] {
		return // blacked-out switch moves nothing this cycle
	}
	if s.swDead(stage, idx) {
		return // crashed switch moves nothing until it restarts
	}
	sw := s.stages[stage][idx]
	rot := int(s.Cycle())
	flt := s.Faults()
	for pi := 0; pi < s.radix; pi++ {
		port := (pi + rot) % s.radix
		if len(sw.outQ[port]) == 0 {
			continue
		}
		m := sw.outQ[port][0]
		outLine := sw.index*s.radix + port
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
			sw.popFwd(port)
			if flt != nil && (flt.DropForward(
				faults.Site(s.k, outLine, 0), m.req.ID, m.req.Attempt) ||
				flt.DropLinkFwd(s.k, outLine, s.Cycle())) {
				continue // request lost on the memory link
			}
			st.FwdHops++
			st.FwdSlots += int64(core.ValueSlots(m.req.Op))
			if s.Adversarial() {
				s.MemLink(outLine, m)
				continue
			}
			st.MemRequests++
			s.metaInsert(outLine, m)
			md.Enqueue(m.req)
			continue
		}
		nextLine := s.topo.NextLine(stage, outLine)
		next := s.stages[stage+1][nextLine/s.radix]
		if s.swDead(stage+1, nextLine/s.radix) {
			continue // dead downstream switch: hold the request here
		}
		if flt != nil && (flt.DropForward(
			faults.Site(stage+1, nextLine/s.radix, nextLine%s.radix), m.req.ID, m.req.Attempt) ||
			flt.DropLinkFwd(stage+1, nextLine/s.radix, s.Cycle())) {
			sw.popFwd(port)
			continue // request lost on the inter-stage link
		}
		dst := s.destModule(m.req.Addr)
		if next.tryAccept(m, s.outPortFor(stage+1, dst), uint8(nextLine%s.radix), st) {
			sw.popFwd(port)
			st.FwdHops++
			st.FwdSlots += int64(core.ValueSlots(m.req.Op))
		}
	}
}

// getPath returns an empty path header with capacity for all k stages,
// reusing storage recycled by deliver: at steady state the inject→deliver
// loop cycles a fixed set of arrays and allocates nothing.
func (s *Sim) getPath() []uint8 {
	if n := len(s.pathFree); n > 0 {
		p := s.pathFree[n-1]
		s.pathFree = s.pathFree[:n-1]
		return p
	}
	return make([]uint8, 0, s.k)
}

// putPath recycles a path header whose message left the machine.
// Undersized arrays (grown by append on messages that entered without a
// pooled header) are dropped so getPath's capacity guarantee holds.
func (s *Sim) putPath(p []uint8) {
	if cap(p) < s.k {
		return
	}
	s.pathFree = append(s.pathFree, p[:0])
}

// injectAll offers each processor port's message to stage 0, in rotating
// order so no processor port permanently outranks another.  A message
// takes a path header only for its admission attempt; a refused attempt
// returns it to the pool.
func (s *Sim) injectAll() {
	rot := int(s.Cycle())
	flt := s.Faults()
	for pi := 0; pi < s.n; pi++ {
		proc := (pi + rot) % s.n
		m, retry, ok := s.Offer(proc)
		if !ok {
			continue
		}
		line := s.topo.ProcLine(proc)
		si, port := line/s.radix, line%s.radix
		if s.swDead(0, si) {
			continue // dead stage-0 switch: hold the request at the port
		}
		if flt != nil && (flt.DropForward(faults.Site(0, si, port), m.Req.ID, m.Req.Attempt) ||
			flt.DropLinkFwd(0, si, s.Cycle())) {
			s.Take(proc, retry) // lost on the processor-to-stage-0 link
			continue
		}
		fm := fwdMsg{req: m.Req, path: s.getPath(), issueCycle: m.Issue, hot: m.Hot}
		if !s.stages[0][si].tryAccept(fm, s.outPortFor(0, s.destModule(m.Req.Addr)), uint8(port), &s.stats) {
			s.putPath(fm.path)
			continue
		}
		s.stats.FwdHops++
		s.stats.FwdSlots += int64(core.ValueSlots(m.Req.Op))
		s.Take(proc, retry)
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
	for _, stage := range s.stages {
		for _, sw := range stage {
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
// parked in wait buffers, or in memory.
func (s *Sim) occupancy() int {
	n := 0
	for _, stage := range s.stages {
		for _, sw := range stage {
			for port := 0; port < s.radix; port++ {
				n += len(sw.outQ[port]) + len(sw.revQ[port])
			}
			n += sw.wait.Len()
		}
	}
	for mod := 0; mod < s.n; mod++ {
		n += s.Memory().Module(mod).QueueLen()
	}
	return n
}
