package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"combining/internal/asyncnet"
	"combining/internal/rmw"
)

// hot_counter: one hot counter incremented from real goroutines, first
// through a 64-port asyncnet (every port pipelines RMWAsync(0,
// FetchAdd(1)) under a window of 16 and then fences), then by nproc
// goroutines on pkg/sync.  The seed draws how many operations each port
// and each goroutine issues.

const (
	asyncPorts   = 64
	asyncWindow  = 16
	asyncPerPort = 1500 // mean fetch-and-adds per port and batch
	asyncShare   = 0.8  // of the budget; pkg/sync gets the rest
	syncPerG     = 100000
	mcsPerG      = 10000
)

// asyncRun is one asyncnet batch: a fresh network, every port's burst of
// fetch-and-adds, the fences, and the checks.
type asyncRun struct {
	setupNs  []float64
	ns       float64 // batch wall time
	ops      int64
	bad      int64
	errs     []string
	combines int64
	stalls   int64
	rttP50   float64
	rttP99   float64
	rttN     int64

	// Traced batches only: host time inside RMWAsync and Fence.
	traced           bool
	issueNs, fenceNs int64
	mem              memDelta
}

func runAsyncBatch(rng *rand.Rand, traced bool, heap *heapPeak) *asyncRun {
	ar := &asyncRun{traced: traced}
	rounds := make([]int, asyncPorts)
	for p := range rounds {
		rounds[p] = asyncPerPort/2 + rng.IntN(asyncPerPort)
		ar.ops += int64(rounds[p])
	}
	cfg := asyncnet.Config{Procs: asyncPorts, Combining: true, Window: asyncWindow}
	var net *asyncnet.Net
	for rep := 0; rep < setupReps; rep++ {
		if net != nil {
			net.Close()
		}
		runtime.GC()
		t0 := time.Now()
		net = asyncnet.New(cfg)
		ar.setupNs = append(ar.setupNs, float64(time.Since(t0).Nanoseconds()))
	}
	defer net.Close()
	heap.sample()

	issue := make([]int64, asyncPorts)
	fence := make([]int64, asyncPorts)
	var ms0 runtime.MemStats
	if traced {
		ms0 = readMem()
	}
	var wg sync.WaitGroup
	wg.Add(asyncPorts)
	t0 := time.Now()
	for p := 0; p < asyncPorts; p++ {
		go func(p int) {
			defer wg.Done()
			port := net.Port(p)
			faa := rmw.FetchAdd(1)
			if !traced {
				for r := 0; r < rounds[p]; r++ {
					port.RMWAsync(0, faa)
				}
				port.Fence()
				return
			}
			for r := 0; r < rounds[p]; r++ {
				t := time.Now()
				port.RMWAsync(0, faa)
				issue[p] += time.Since(t).Nanoseconds()
			}
			t := time.Now()
			port.Fence()
			fence[p] = time.Since(t).Nanoseconds()
		}(p)
	}
	wg.Wait()
	ar.ns = float64(time.Since(t0).Nanoseconds())
	if traced {
		ar.mem = memSince(ms0)
		for p := range issue {
			ar.issueNs += issue[p]
			ar.fenceNs += fence[p]
		}
	}
	heap.sample()
	heap.settle()
	heap.episode()

	if got := net.Memory().Peek(0).Val; got != ar.ops {
		ar.fail(fmt.Sprintf("hot counter holds %d after %d fetch-and-add(1)s", got, ar.ops))
	}
	snap := net.Snapshot()
	if c, i := snap.Counter("completed"), snap.Counter("issued"); c != i || i != ar.ops {
		ar.fail(fmt.Sprintf("asyncnet snapshot: %d issued, %d completed, %d ops run", i, c, ar.ops))
	}
	ar.combines = snap.Counter("combines")
	ar.stalls = snap.Counter("credit_stalls")
	h := snap.Histograms["port_rtt_ns"]
	ar.rttP50, ar.rttP99, ar.rttN = h.Percentile(0.50), h.Percentile(0.99), h.Count
	return ar
}

func (ar *asyncRun) fail(msg string) {
	ar.bad = ar.ops
	ar.errs = append(ar.errs, msg)
}

// runHotCounter runs the hot_counter workload and reports its metrics.
func runHotCounter(seed uint64, budget time.Duration, traced bool, g int, rep *report) {
	heap := &heapPeak{}
	rng := rand.New(rand.NewPCG(seed, 0x6a09e667f3bcc909))
	var runs []*asyncRun
	start := time.Now()
	asyncBudget := time.Duration(float64(budget) * asyncShare)
	for b := 0; b < 2 || time.Since(start) < asyncBudget; b++ {
		runs = append(runs, runAsyncBatch(rng, traced && b%2 == 1, heap))
	}

	var setup, opNs, topNs, rtt50, rtt99 []float64
	var combines, stalls, rttN, issueNs, fenceNs, tops int64
	var mem memDelta
	for i, ar := range runs {
		rep.addCheck(fmt.Sprintf("asyncnet batch %d", i), ar.ops, ar.bad, ar.errs)
		setup = append(setup, ar.setupNs...)
		if !ar.traced {
			opNs = append(opNs, ar.ns/float64(ar.ops))
			continue
		}
		topNs = append(topNs, ar.ns/float64(ar.ops))
		combines += ar.combines
		tops += ar.ops
		stalls += ar.stalls
		rttN += ar.rttN
		rtt50 = append(rtt50, ar.rttP50)
		rtt99 = append(rtt99, ar.rttP99)
		issueNs += ar.issueNs
		fenceNs += ar.fenceNs
		mem.add(ar.mem)
		rep.hostNs += ar.ns
		rep.combines += float64(ar.combines)
	}

	var counter, mcs []float64
	for time.Since(start) < budget || len(counter) < 3 {
		per := syncPerG/2 + rng.IntN(syncPerG)
		ns, n, bad := syncCounter(g, per)
		counter = append(counter, ns)
		rep.addCheck("pkg/sync Counter", n, bad, nil)
		per = mcsPerG/2 + rng.IntN(mcsPerG)
		ns, n, bad = syncMCS(g, per)
		mcs = append(mcs, ns)
		rep.addCheck("pkg/sync MCSLock", n, bad, nil)
	}

	asyncOps := 1e9 / median(opNs)
	rep.add("setup_s", median(setup)/1e9, "s", len(setup))
	rep.add("ops_per_s", asyncOps, "1/s", len(opNs))
	rep.add("async_ops_per_s", asyncOps, "1/s", len(opNs))
	rep.add("counter_add_ns", median(counter), "ns", len(counter))
	rep.add("mcs_lock_ns", median(mcs), "ns", len(mcs))
	heap.report(rep)
	if !traced {
		return
	}
	rep.add("asyncnet.rtt_p50_us", median(rtt50)/1e3, "us", int(rttN))
	rep.add("asyncnet.rtt_p99_us", median(rtt99)/1e3, "us", int(rttN))
	rep.add("asyncnet.combines_per_op", float64(combines)/float64(tops), "ratio", int(tops))
	rep.add("asyncnet.credit_stalls", float64(stalls), "count", 0)
	rep.add("asyncnet.issue_block_ns", float64(issueNs)/float64(tops), "ns", int(tops))
	rep.add("asyncnet.fence_wait_ns", float64(fenceNs)/float64(len(topNs)*asyncPorts), "ns", len(topNs)*asyncPorts)
	rep.add("core.combine_frac", float64(combines)/float64(tops), "frac", int(tops))
	rep.add("engine.allocs_per_op", float64(mem.mallocs)/float64(tops), "allocs", int(tops))
	rep.add("engine.bytes_per_op", float64(mem.bytes)/float64(tops), "B", int(tops))
	rep.add("trace_overhead_frac", 1-median(opNs)/median(topNs), "frac", len(topNs))
	mem.reportGC(rep)
}
