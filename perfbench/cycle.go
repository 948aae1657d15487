package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"combining/internal/busnet"
	"combining/internal/core"
	"combining/internal/hypercube"
	"combining/internal/memory"
	"combining/internal/network"
	"combining/internal/stats"
	"combining/internal/word"
)

// engineSim is what the benchmark drives on every cycle engine.
type engineSim interface {
	Run(cycles int)
	Drain(maxCycles int) bool
	InFlight() int
	Snapshot() stats.Snapshot
	Stalled() bool
	Memory() *memory.Array
}

// machine is one cycle engine of a workload: its size, its traffic and
// how many cycles each episode warms up, measures and times per chunk.
// Every processor is a closed-loop Stochastic injector issuing
// fetch-and-add(1) at rate 0.9 under a window of 4.
type machine struct {
	layer   string // network, hypercube or busnet
	procs   int
	banks   int // busnet only
	workers int
	hot     float64
	warm    int
	measure int
	chunk   int
}

const (
	issueRate  = 0.9
	window     = 4
	queueCap   = 4
	setupReps  = 3      // engine constructions per episode, all timed
	drainLimit = 100000 // cycles Drain may take before the run fails
)

func (m machine) traffic() network.TrafficConfig {
	return network.TrafficConfig{Rate: issueRate, HotFraction: m.hot, Window: window}
}

// addrs is the address range the traffic can touch (the generator's
// default of 64·N).
func (m machine) addrs() word.Addr { return word.Addr(64 * m.procs) }

func (m machine) build(inj []network.Injector) engineSim {
	switch m.layer {
	case "network":
		return network.NewSim(network.Config{Procs: m.procs, QueueCap: queueCap,
			WaitBufCap: core.Unbounded, Workers: m.workers}, inj)
	case "hypercube":
		return hypercube.NewSim(hypercube.Config{Nodes: m.procs, QueueCap: queueCap,
			WaitBufCap: core.Unbounded, Workers: m.workers}, inj)
	case "busnet":
		return busnet.NewSim(busnet.Config{Procs: m.procs, Banks: m.banks, QueueCap: queueCap,
			WaitBufCap: core.Unbounded, Workers: m.workers}, inj)
	}
	panic("unknown engine " + m.layer)
}

// engineRun is one episode of one machine: set up, warm up, measure in
// timed chunks, stop the traffic, drain, and check every reply.
type engineRun struct {
	setupNs   []float64
	nsPerCyc  []float64 // one per timed chunk
	cycles    int64     // measured
	completed int64     // measured
	warmSnap  stats.Snapshot
	endSnap   stats.Snapshot
	digest    string

	// The reply checks' verdict, and the simulated round trips of the
	// measured window.
	issued, failed       int64
	errs                 []string
	latP50, latP99, latN int64

	// Traced episodes only.
	tr       *tracer
	scanNs   []float64 // one InFlight() call between chunks
	mem      memDelta  // over the measured window
	measured time.Duration
}

func seedFor(seed uint64, i int) uint64 { return seed + uint64(i)*0x9e3779b97f4a7c15 }

func runMachine(m machine, seed uint64, traced bool, heap *heapPeak) *engineRun {
	er := &engineRun{}
	var sim engineSim
	var st *runState
	var check *replyCheck
	for rep := 0; rep < setupReps; rep++ {
		sim, check = nil, nil
		runtime.GC()
		check = newReplyCheck(m.procs, window, m.addrs())
		st = &runState{}
		t0 := time.Now()
		inj := make([]network.Injector, m.procs)
		for p := range inj {
			inj[p] = &checkedInjector{proc: p, gen: network.NewStochastic(p, m.procs, m.traffic(), seed),
				check: check, run: st}
		}
		sim = m.build(inj)
		er.setupNs = append(er.setupNs, float64(time.Since(t0).Nanoseconds()))
	}
	heap.sample()
	if traced {
		er.tr = &tracer{cycleNs: make([]int64, 0, m.measure)}
	}

	sim.Run(m.warm)
	er.warmSnap = sim.Snapshot()
	check.latOn = true
	delivered0 := check.delivered
	var ms0 runtime.MemStats
	if traced {
		ms0 = readMem()
		st.tr = er.tr
	}
	for done := 0; done < m.measure; done += m.chunk {
		if traced {
			er.tr.chunk(true)
		}
		t0 := time.Now()
		sim.Run(m.chunk)
		dt := time.Since(t0)
		er.measured += dt
		er.nsPerCyc = append(er.nsPerCyc, float64(dt.Nanoseconds())/float64(m.chunk))
		if traced {
			er.tr.chunk(false)
			t1 := time.Now()
			sim.InFlight()
			er.scanNs = append(er.scanNs, float64(time.Since(t1).Nanoseconds()))
		}
		heap.sample()
	}
	if traced {
		er.mem = memSince(ms0)
		st.tr = nil
	}
	heap.settle()
	er.endSnap = sim.Snapshot()
	check.latOn = false
	er.cycles = er.endSnap.Counter("cycles") - er.warmSnap.Counter("cycles")
	er.completed = check.delivered - delivered0

	st.stopped = true
	if !sim.Drain(drainLimit) {
		er.errs = append(er.errs, fmt.Sprintf("%s did not drain within %d cycles (in flight %d, stalled %v)",
			m.layer, drainLimit, sim.InFlight(), sim.Stalled()))
	}
	mem := sim.Memory()
	check.finish(func(a word.Addr) int64 { return mem.Peek(a).Val })
	final := sim.Snapshot()
	if sim.Stalled() || final.Counter("watchdog_trips") != 0 {
		er.errs = append(er.errs, m.layer+" watchdog tripped")
	}
	if got, want := final.Counter("completed"), check.delivered; got != want {
		er.errs = append(er.errs, fmt.Sprintf("%s snapshot counts %d completed, injectors saw %d replies", m.layer, got, want))
	}
	if got, want := final.Counter("issued"), check.issued; got != want {
		er.errs = append(er.errs, fmt.Sprintf("%s snapshot counts %d issued, injectors issued %d", m.layer, got, want))
	}
	sum := sha256.Sum256(final.JSON())
	er.digest = hex.EncodeToString(sum[:8])

	er.issued, er.failed = check.issued, min(check.bad, check.issued)
	if len(er.errs) > 0 {
		// A failed engine-level check condemns the whole episode.
		er.failed = check.issued
	}
	er.errs = append(check.errs, er.errs...)
	er.latP50, er.latN = check.latPercentile(0.50)
	er.latP99, _ = check.latPercentile(0.99)
	heap.sample()
	return er
}
