package main

import (
	"sync"
	"sync/atomic"
	"time"

	"combining/internal/core"
	"combining/internal/memory"
	"combining/internal/par"
	"combining/internal/rmw"
	"combining/internal/word"
	csync "combining/pkg/sync"
)

// Per-layer probes: each times calls into one layer's public functions,
// batch by batch, and reports the median ns per call.  They run after the
// workload in a traced run, with nothing else in flight.

const probeBatches = 7

// batches times probeBatches runs of body(n) and returns ns per op of
// each; body returns the operations it performed.
func batches(body func() int) []float64 {
	out := make([]float64, 0, probeBatches)
	for b := 0; b < probeBatches; b++ {
		t0 := time.Now()
		ops := body()
		out = append(out, float64(time.Since(t0).Nanoseconds())/float64(ops))
	}
	return out
}

var sinkWord word.Word

// probeCombine times core.Combine plus core.Decombine of two
// fetch-and-add(1) requests to one address.
func probeCombine() []float64 {
	a := core.NewRequest(1, 0, rmw.FetchAdd(1), 0)
	b := core.NewRequest(2, 0, rmw.FetchAdd(1), 1)
	const n = 20000
	return batches(func() int {
		for i := 0; i < n; i++ {
			c, rec, _ := core.Combine(a, b, core.Policy{})
			r1, r2 := core.Decombine(rec, core.Reply{ID: c.ID, Val: word.Word{Val: int64(i)}})
			sinkWord = r2.Val
			sinkWord.Val += r1.Val.Val
		}
		return n
	})
}

// probeCompose times rmw.Compose of two fetch-and-adds and counts its
// heap allocations per call.
func probeCompose() (ns []float64, allocs float64) {
	f, g := rmw.Mapping(rmw.FetchAdd(1)), rmw.Mapping(rmw.FetchAdd(2))
	const n = 50000
	var sink rmw.Mapping
	before := readMem()
	ns = batches(func() int {
		for i := 0; i < n; i++ {
			sink, _ = rmw.Compose(f, g)
		}
		return n
	})
	d := memSince(before)
	_ = sink
	return ns, float64(d.mallocs) / float64(n*probeBatches)
}

// probeMemory times memory.Module.Enqueue plus Tick, the locked path the
// cycle engines take for every request.
func probeMemory() []float64 {
	mod := memory.NewModule()
	const n = 20000
	id := word.ReqID(0)
	return batches(func() int {
		for i := 0; i < n; i++ {
			id++
			mod.Enqueue(core.NewRequest(id, word.Addr(i&63), rmw.FetchAdd(1), 0))
			if rep, ok := mod.Tick(); ok {
				sinkWord = rep.Val
			}
		}
		return n
	})
}

// probePool times par.Pool.Run of an empty function on started workers.
func probePool(workers int) []float64 {
	pool := par.NewPool(workers)
	pool.Start()
	defer pool.Stop()
	fn := func(int) {}
	const n = 5000
	return batches(func() int {
		for i := 0; i < n; i++ {
			pool.Run(fn)
		}
		return n
	})
}

// probeBarrier times par.NewBarrier(workers).Sync episodes on a started
// pool.
func probeBarrier(workers int) []float64 {
	pool := par.NewPool(workers)
	pool.Start()
	defer pool.Stop()
	bar := par.NewBarrier(workers)
	const n = 5000
	return batches(func() int {
		pool.Run(func(w int) {
			for i := 0; i < n; i++ {
				bar.Sync(w)
			}
		})
		return n
	})
}

// contend runs per operations of op on each of g goroutines and returns
// the elapsed ns per operation over all of them.
func contend(g, per int, op func()) float64 {
	var wg sync.WaitGroup
	wg.Add(g)
	t0 := time.Now()
	for i := 0; i < g; i++ {
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				op()
			}
		}()
	}
	wg.Wait()
	return float64(time.Since(t0).Nanoseconds()) / float64(g*per)
}

// syncCounter times g goroutines each adding 1 per times to one
// csync.Counter, and checks the total.  It returns ns per Add, the ops
// attempted and the ops the check rejects.
func syncCounter(g, per int) (ns float64, ops, bad int64) {
	c := csync.NewCounter()
	ns = contend(g, per, func() { c.Add(1) })
	ops = int64(g * per)
	if got := c.Read(); got != ops {
		bad = ops
	}
	return ns, ops, bad
}

// syncMCS times g goroutines each taking an MCSLock per times around a
// plain increment, and checks the increment count.
func syncMCS(g, per int) (ns float64, ops, bad int64) {
	var l csync.MCSLock
	var x int64
	ns = contend(g, per, func() {
		q := l.Lock()
		x++
		l.Unlock(q)
	})
	ops = int64(g * per)
	if x != ops {
		bad = ops
	}
	return ns, ops, bad
}

// syncProbes measures the pkg/sync primitives and their stdlib references
// at g contenders.
func syncProbes(g int, rep *report) {
	var counter, mcs []float64
	for b := 0; b < probeBatches; b++ {
		ns, ops, bad := syncCounter(g, 200000/g)
		counter = append(counter, ns)
		rep.addCheck("sync counter probe", ops, bad, nil)
		ns, ops, bad = syncMCS(g, 20000/g)
		mcs = append(mcs, ns)
		rep.addCheck("sync MCS probe", ops, bad, nil)
	}
	var a atomic.Int64
	atomicNs := batches(func() int {
		contend(g, 200000/g, func() { a.Add(1) })
		return g * (200000 / g)
	})
	var mu sync.Mutex
	var x int64
	mutexNs := batches(func() int {
		contend(g, 100000/g, func() {
			mu.Lock()
			x++
			mu.Unlock()
		})
		return g * (100000 / g)
	})
	rep.add("sync.counter_add_ns", median(counter), "ns", len(counter))
	rep.add("sync.mcs_lock_ns", median(mcs), "ns", len(mcs))
	rep.add("sync.counter_read_ns", median(probeCounterRead(g)), "ns", probeBatches)
	rep.add("sync.barrier_episode_ns", median(probeSyncBarrier(g)), "ns", probeBatches)
	rep.add("sync.fecell_handoff_ns", median(probeFECell(rep)), "ns", probeBatches)
	rep.add("sync.atomic_add_ns", median(atomicNs), "ns", len(atomicNs))
	rep.add("sync.mutex_lock_ns", median(mutexNs), "ns", len(mutexNs))
	rep.add("sync.waitgroup_forkjoin_ns", median(probeForkJoin(g)), "ns", probeBatches)
	rep.add("sync.counter_vs_atomic", median(counter)/median(atomicNs), "ratio", 0)
	rep.add("sync.mcs_vs_mutex", median(mcs)/median(mutexNs), "ratio", 0)
}

// probeCounterRead times Counter.Read while g−1 goroutines (at least one)
// keep adding, so a faster Add paid for by a slower Read shows.
func probeCounterRead(g int) []float64 {
	c := csync.NewCounter()
	var stop atomic.Bool
	var wg sync.WaitGroup
	writers := max(1, g-1)
	wg.Add(writers)
	for i := 0; i < writers; i++ {
		go func() {
			defer wg.Done()
			for !stop.Load() {
				c.Add(1)
			}
		}()
	}
	const n = 20000
	var sink int64
	ns := batches(func() int {
		for i := 0; i < n; i++ {
			sink += c.Read()
		}
		return n
	})
	stop.Store(true)
	wg.Wait()
	_ = sink
	return ns
}

// probeSyncBarrier times csync.Barrier episodes at g participants.
func probeSyncBarrier(g int) []float64 {
	b := csync.NewBarrier(g)
	const n = 2000
	return batches(func() int {
		var wg sync.WaitGroup
		wg.Add(g)
		for w := 0; w < g; w++ {
			go func(w int) {
				defer wg.Done()
				for i := 0; i < n; i++ {
					b.Wait(w)
				}
			}(w)
		}
		wg.Wait()
		return n
	})
}

// probeFECell times a producer–consumer handoff through one FECell and
// checks the consumer sees every value in order.
func probeFECell(rep *report) []float64 {
	var c csync.FECell
	const n = 5000
	return batches(func() int {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < n; i++ {
				c.Put(i)
			}
		}()
		var bad int64
		for i := int64(0); i < n; i++ {
			if c.Take() != i {
				bad++
			}
		}
		wg.Wait()
		rep.addCheck("FECell probe", n, bad, nil)
		return n
	})
}

// probeForkJoin times the stdlib fork-join episode: start g goroutines,
// wait for all on a WaitGroup.
func probeForkJoin(g int) []float64 {
	const n = 2000
	return batches(func() int {
		for i := 0; i < n; i++ {
			var wg sync.WaitGroup
			wg.Add(g)
			for w := 0; w < g; w++ {
				go wg.Done()
			}
			wg.Wait()
		}
		return n
	})
}

// layerProbes reports every per-layer probe.  core.combine_share also
// needs the combines and host time the workload recorded.
func layerProbes(rep *report, workers, g int) {
	comb := median(probeCombine())
	rep.add("core.combine_decombine_ns", comb, "ns", probeBatches)
	compose, allocs := probeCompose()
	rep.add("rmw.compose_ns", median(compose), "ns", len(compose))
	rep.add("rmw.compose_allocs", allocs, "allocs", probeBatches)
	rep.add("memory.enqueue_tick_ns", median(probeMemory()), "ns", probeBatches)
	rep.add("par.pool_run_ns", median(probePool(workers)), "ns", probeBatches)
	rep.add("par.barrier_sync_ns", median(probeBarrier(workers)), "ns", probeBatches)
	syncProbes(g, rep)
	rep.add("core.combine_share", rep.combines*comb/rep.hostNs, "frac", 0)
}
