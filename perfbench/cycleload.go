package main

import (
	"fmt"
	"time"
)

// cycleEpisodes runs the machines of a cycle workload one after another,
// episode after episode, until the time budget is spent.  Every episode
// replays the same seed, so every episode must end in the same Snapshot.
// A traced run alternates untraced and traced episodes, so end-to-end and
// per-layer numbers come from the same process and host state.
func cycleEpisodes(ms []machine, seed uint64, budget time.Duration, traced bool, heap *heapPeak) [][]*engineRun {
	runs := make([][]*engineRun, len(ms))
	start := time.Now()
	minEpisodes := 1
	if traced {
		minEpisodes = 2
	}
	for ep := 0; ep < minEpisodes || time.Since(start) < budget; ep++ {
		for i, m := range ms {
			runs[i] = append(runs[i], runMachine(m, seedFor(seed, i), traced && ep%2 == 1, heap))
		}
		heap.episode()
	}
	return runs
}

// engineTotals aggregates one machine's episodes.  Host time per cycle is
// the median over timed chunks, which a stray slow chunk cannot move; the
// cycle and request counts of the measured window are the same in every
// episode.
type engineTotals struct {
	nsPerCycle float64
	chunks     int
	cycles     int64 // measured, per episode
	completed  int64 // measured, per episode
	hostNs     float64
}

func totalsOf(runs []*engineRun, traced bool) engineTotals {
	var xs []float64
	for _, er := range runs {
		if (er.tr != nil) == traced {
			xs = append(xs, er.nsPerCyc...)
		}
	}
	t := engineTotals{chunks: len(xs), cycles: runs[0].cycles, completed: runs[0].completed}
	t.nsPerCycle = median(xs)
	t.hostNs = t.nsPerCycle * float64(t.cycles)
	return t
}

// rates returns simulated cycles and completed requests per host second
// over several engines run back to back.
func rates(ts []engineTotals) (cyclesPerS, opsPerS float64, n int) {
	var c, o, ns float64
	for _, t := range ts {
		c += float64(t.cycles)
		o += float64(t.completed)
		ns += t.hostNs
		n += t.chunks
	}
	return c / ns * 1e9, o / ns * 1e9, n
}

// runCycleWorkload runs a cycle workload and reports its metrics.
// It returns each machine's untraced totals.
func runCycleWorkload(ms []machine, seed uint64, budget time.Duration, traced bool, rep *report) []engineTotals {
	heap := &heapPeak{}
	runs := cycleEpisodes(ms, seed, budget, traced, heap)

	var setup []float64 // one per construction, summed over the machines
	for ep := range runs[0] {
		for r := range runs[0][ep].setupNs {
			var s float64
			for i := range ms {
				s += runs[i][ep].setupNs[r]
			}
			setup = append(setup, s)
		}
	}
	for i, m := range ms {
		for ep, er := range runs[i] {
			rep.addCheck(fmt.Sprintf("%s episode %d", m.layer, ep), er.issued, er.failed, er.errs)
			if er.digest != runs[i][0].digest {
				rep.failf(er.issued, "%s episode %d ended in Snapshot %s, episode 0 in %s: the engine is not deterministic",
					m.layer, ep, er.digest, runs[i][0].digest)
			}
		}
	}

	ts := make([]engineTotals, len(ms))
	for i := range ms {
		ts[i] = totalsOf(runs[i], false)
	}
	cps, ops, n := rates(ts)
	rep.add("setup_s", median(setup)/1e9, "s", len(setup))
	rep.add("ops_per_s", ops, "1/s", n)
	rep.add("sim_requests_per_s", ops, "1/s", n)
	rep.add("sim_cycles_per_s", cps, "1/s", n)
	heap.report(rep)
	for i, m := range ms {
		prefix := ""
		if len(ms) > 1 {
			prefix = m.layer + "."
		}
		er := runs[i][0]
		rep.add(prefix+"sim_bandwidth_ops_per_cycle", float64(er.completed)/float64(er.cycles), "ops/cyc", int(er.cycles))
		rep.add(prefix+"sim_latency_p50_cycles", float64(er.latP50), "cycles", int(er.latN))
		rep.add(prefix+"sim_latency_p99_cycles", float64(er.latP99), "cycles", int(er.latN))
		rep.digests = append(rep.digests, m.layer+":"+er.digest)
	}
	if !traced {
		return ts
	}
	cycleLayers(ms, runs, ts, rep)
	tts := make([]engineTotals, len(ms))
	for i := range ms {
		tts[i] = totalsOf(runs[i], true)
	}
	_, tops, tn := rates(tts)
	rep.add("trace_overhead_frac", 1-tops/ops, "frac", tn)
	return ts
}

// cycleLayers reports the per-layer metrics of a traced cycle workload:
// per engine, then summed over the engines.  Host times come from the
// traced episodes, counts from the measured window of episode 0.
func cycleLayers(ms []machine, runs [][]*engineRun, ts []engineTotals, rep *report) {
	var completed, tcompleted float64
	var mem memDelta
	for i, m := range ms {
		var cyc, scan []float64
		var tr tracer
		var tmem memDelta
		var tcycles int64
		var tmeasured time.Duration
		for _, er := range runs[i] {
			if er.tr == nil {
				continue
			}
			for _, ns := range er.tr.cycleNs {
				cyc = append(cyc, float64(ns))
			}
			scan = append(scan, er.scanNs...)
			tr.nextNs += er.tr.nextNs
			tr.nextCalls += er.tr.nextCalls
			tr.deliverNs += er.tr.deliverNs
			tr.deliverCalls += er.tr.deliverCalls
			tmem.add(er.mem)
			tcycles += er.cycles
			tcompleted += float64(er.completed)
			tmeasured += er.measured
		}
		er := runs[i][0]
		d := func(k string) float64 { return float64(er.endSnap.Counter(k) - er.warmSnap.Counter(k)) }
		cycles := float64(er.cycles)
		p := m.layer + "."
		rep.add(p+"cycle_ns_p50", quantile(cyc, 0.50), "ns", len(cyc))
		rep.add(p+"cycle_ns_p99", quantile(cyc, 0.99), "ns", len(cyc))
		if hops := d("fwd_hops") + d("rev_hops"); hops > 0 { // the bus has no links
			rep.add(p+"ns_per_hop", ts[i].hostNs/hops, "ns", ts[i].chunks)
			rep.add(p+"fwd_hops_per_cycle", d("fwd_hops")/cycles, "hops", 0)
			rep.add(p+"rev_hops_per_cycle", d("rev_hops")/cycles, "hops", 0)
		}
		rep.add(p+"inflight_scan_ns", median(scan), "ns", len(scan))
		rep.add(p+"inject_next_ns", float64(tr.nextNs)/float64(max(1, tr.nextCalls)), "ns", int(tr.nextCalls))
		rep.add(p+"inject_deliver_ns", float64(tr.deliverNs)/float64(max(1, tr.deliverCalls)), "ns", int(tr.deliverCalls))
		rep.add(p+"inject_share", float64(tr.nextNs+tr.deliverNs)/float64(tmeasured.Nanoseconds()), "frac", 0)
		rep.add(p+"allocs_per_cycle", float64(tmem.mallocs)/float64(tcycles), "allocs", int(tcycles))
		rep.add(p+"bytes_per_cycle", float64(tmem.bytes)/float64(tcycles), "B", int(tcycles))
		rep.add(p+"saturation_cycles", d("saturation_cycles"), "cycles", 0)
		rep.add(p+"holds_rev", d("holds_rev"), "count", 0)
		rep.add(p+"holds_mem", d("holds_mem"), "count", 0)
		if g, ok := er.endSnap.Gauges["max_out_queue"]; ok {
			rep.add(p+"max_out_queue", float64(g), "msgs", 0)
		}
		if m.layer == "busnet" {
			rep.add(p+"bus_ops_per_cycle", d("bus_ops")/cycles, "ops", 0)
		}
		rep.add(p+"core.combines", d("combines"), "count", 0)
		rep.add(p+"core.combine_rejects", d("combine_rejects"), "count", 0)
		rep.add(p+"core.combine_frac", d("combines")/float64(er.completed), "frac", 0)
		rep.add(p+"memory.max_mem_queue", float64(er.endSnap.Gauges["max_mem_queue"]), "msgs", 0)
		rep.add(p+"memory.holds_mem_out", d("holds_mem_out"), "count", 0)
		rep.hostNs += ts[i].hostNs
		rep.combines += d("combines")
		completed += float64(er.completed)
		mem.add(tmem)
	}
	rep.add("core.combine_frac", rep.combines/completed, "frac", int(completed))
	rep.add("engine.allocs_per_op", float64(mem.mallocs)/tcompleted, "allocs", int(tcompleted))
	rep.add("engine.bytes_per_op", float64(mem.bytes)/tcompleted, "B", int(tcompleted))
	mem.reportGC(rep)
}
