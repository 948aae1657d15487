// Command perfbench is the repository's benchmark: one workload per run,
// inputs generated from a seed, every reply checked, end-to-end metrics by
// default and per-layer metrics with -trace 1.  It prints one readable line
// per metric (name, value, unit, sample count) and, last, a one-line JSON
// result holding the metrics BENCHMARK.json declares.
//
//	go run . -workload omega_hotspot -seed 1 -seconds 10 -trace 0
//
// The exit status is non-zero when any check fails.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// endToEnd and perLayer are the metrics of the JSON result line, in the
// order BENCHMARK.json lists them.  Every workload reports all of them;
// the readable lines carry the workload-specific ones as well.
var endToEnd = []string{"setup_s", "ops_per_s", "heap_live_mb"}

var perLayer = []string{
	"trace_overhead_frac",
	"engine.allocs_per_op",
	"engine.bytes_per_op",
	"core.combine_frac",
	"core.combine_share",
	"core.combine_decombine_ns",
	"rmw.compose_ns",
	"rmw.compose_allocs",
	"memory.enqueue_tick_ns",
	"par.pool_run_ns",
	"par.barrier_sync_ns",
	"sync.counter_add_ns",
	"sync.mcs_lock_ns",
	"sync.counter_read_ns",
	"sync.barrier_episode_ns",
	"sync.fecell_handoff_ns",
	"sync.atomic_add_ns",
	"sync.mutex_lock_ns",
	"sync.waitgroup_forkjoin_ns",
	"sync.counter_vs_atomic",
	"sync.mcs_vs_mutex",
	"runtime.gc_cycles",
	"runtime.gc_pause_ns",
}

// workloads lists each workload's cycle engines; hot_counter has none.
// Sizes: the omega runs are the 1024-processor headline machine; the
// hypercube and bus measured windows are sized so each engine takes about
// half of cube_bus_hotspot's host time.
func workloads(workers int) map[string][]machine {
	omega := machine{layer: "network", procs: 1024, workers: 1, hot: 0.125, warm: 150, measure: 600, chunk: 20}
	uniform := omega
	uniform.hot, uniform.workers = 0, workers
	return map[string][]machine{
		"omega_hotspot":    {omega},
		"omega_uniform_w2": {uniform},
		"cube_bus_hotspot": {
			{layer: "hypercube", procs: 1024, workers: 1, hot: 0.125, warm: 150, measure: 450, chunk: 15},
			{layer: "busnet", procs: 64, banks: 16, workers: 1, hot: 0.125, warm: 20000, measure: 400000, chunk: 10000},
		},
		"hot_counter": nil,
	}
}

// recordedDigests maps workload → seed → the engines' final-Snapshot
// digests at the commit that recorded them, so a change to the modelled
// machine shows in the report.
//
//go:embed digests.json
var recordedDigests []byte

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "omega_hotspot", "workload to run")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "seconds to measure")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.Parse()

	nproc := runtime.NumCPU()
	gmp := runtime.GOMAXPROCS(0)
	if gmp > nproc {
		fmt.Fprintf(os.Stderr, "perfbench: GOMAXPROCS=%d exceeds nproc=%d; refusing to run\n", gmp, nproc)
		return 2
	}
	workers := min(2, nproc)
	all := workloads(workers)
	ms, ok := all[*workload]
	if !ok {
		names := make([]string, 0, len(all))
		for n := range all {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %v)\n", *workload, names)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: -seconds must be positive, got %v\n", *seconds)
		return 2
	}
	traced := *trace == 1
	budget := time.Duration(*seconds * float64(time.Second))
	contenders := nproc
	fmt.Printf("# workload=%s seed=%d seconds=%g trace=%d nproc=%d gomaxprocs=%d go=%s workers=%d sync_contenders=%d\n",
		*workload, *seed, *seconds, *trace, nproc, gmp, runtime.Version(), workers, contenders)

	rep := &report{}
	if ms == nil {
		runHotCounter(*seed, budget, traced, contenders, rep)
	} else {
		ts := runCycleWorkload(ms, *seed, budget, traced, rep)
		if traced && ms[0].workers > 1 {
			serialReplay(ms[0], *seed, ts[0], rep)
		}
		reportDigests(*workload, *seed, rep)
	}
	declared := endToEnd
	if traced {
		layerProbes(rep, workers, contenders)
		declared = perLayer
	}
	if err := rep.print(os.Stdout, declared); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if !rep.correct() {
		return 1
	}
	return 0
}

// serialReplay reruns a parallel machine's seed on the serial stepper: the
// final Snapshot must match, and the host-time ratio is the parallel
// speedup.
func serialReplay(m machine, seed uint64, par engineTotals, rep *report) {
	workers := m.workers
	m.workers = 1
	er := runMachine(m, seedFor(seed, 0), false, &heapPeak{})
	rep.addCheck("serial replay", er.issued, er.failed, er.errs)
	if d := "network:" + er.digest; d != rep.digests[0] {
		rep.failf(er.issued, "serial replay ended in Snapshot %s, Workers=%d in %s", d, workers, rep.digests[0])
	}
	s := median(er.nsPerCyc) / par.nsPerCycle
	rep.add(fmt.Sprintf("par.speedup_w%d", workers), s, "ratio", len(er.nsPerCyc))
	rep.add("par.serial_frac", float64(workers)/s/float64(workers-1)-1/float64(workers-1), "frac", 0)
}

// reportDigests prints the final-Snapshot digests and whether they match
// the ones recorded for this seed.
func reportDigests(workload string, seed uint64, rep *report) {
	var recorded map[string]map[string][]string
	if err := json.Unmarshal(recordedDigests, &recorded); err != nil {
		rep.failf(0, "digests.json: %v", err)
		return
	}
	want, ok := recorded[workload][strconv.FormatUint(seed, 10)]
	status := "no digest recorded for this seed"
	if ok {
		status = "matches the recorded digest"
		if fmt.Sprint(want) != fmt.Sprint(rep.digests) {
			status = fmt.Sprintf("DIFFERS from the recorded %v: the modelled machine changed", want)
		}
	}
	fmt.Printf("snapshot_digest %v %s\n", rep.digests, status)
}
