package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
)

// metric is one named result.  n is the number of samples behind it (0
// for a count or a value derived from other metrics).
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

// report collects a run's metrics, operation counts and check failures.
type report struct {
	metrics   []metric
	attempted int64
	failed    int64
	errs      []string
	digests   []string // engine:digest of each cycle engine's final Snapshot

	// The workload's combines and the host time they took, for
	// core.combine_share.
	combines, hostNs float64
}

func (r *report) add(name string, value float64, unit string, n int) {
	r.metrics = append(r.metrics, metric{name, value, unit, n})
}

// addCheck folds one checker's verdict into the report.
func (r *report) addCheck(what string, attempted, failed int64, errs []string) {
	r.attempted += attempted
	r.failed += failed
	for _, e := range errs {
		r.errs = append(r.errs, what+": "+e)
	}
}

// failf records a violation covering ops operations.
func (r *report) failf(ops int64, format string, args ...any) {
	r.failed += ops
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool { return r.failed == 0 && len(r.errs) == 0 }

func (r *report) lookup(name string) (metric, bool) {
	for _, m := range r.metrics {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

// print writes every metric as a readable line, the check violations, and
// last the one-line JSON result restricted to the declared metric names.
func (r *report) print(w io.Writer, declared []string) error {
	for _, m := range r.metrics {
		fmt.Fprintf(w, "metric %-34s %16.6g %-6s n=%d\n", m.name, m.value, m.unit, m.n)
	}
	// Checks can condemn an operation twice (its episode and its reply);
	// it still counts as one failed operation.
	attempted := max(r.attempted, 1)
	failed := min(r.failed, attempted)
	fmt.Fprintf(w, "metric %-34s %16.6g %-6s n=%d\n", "failed_frac", float64(failed)/float64(attempted), "frac", attempted)
	for _, e := range r.errs {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", e)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), attempted, failed, map[string]value{}}
	for _, name := range declared {
		m, ok := r.lookup(name)
		if !ok {
			return fmt.Errorf("declared metric %s was not measured", name)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is not a finite number: %v", name, m.value)
		}
		out.Metrics[name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// heapPeak tracks a run's heap.  The gated figure is the live heap —
// bytes a forced collection finds reachable — right after each episode's
// measured window, while the engine is still built: the median over
// episodes.  Beside it the report gives the highest HeapInuse sampled
// between timed chunks, which also counts garbage not yet collected and so
// depends on where each sample lands in the collector's cycle.  Samples
// read runtime/metrics, which unlike ReadMemStats does not stop the world.
type heapPeak struct {
	inuse   uint64
	samples int
	cur     uint64    // this episode's live heap
	live    []float64 // one per episode, MB
	m       [3]metrics.Sample
}

func (h *heapPeak) read() {
	if h.samples == 0 {
		h.m[0].Name = "/gc/heap/live:bytes"
		// HeapInuse = heap objects + heap spans' unused space.
		h.m[1].Name = "/memory/classes/heap/objects:bytes"
		h.m[2].Name = "/memory/classes/heap/unused:bytes"
	}
	h.samples++
	metrics.Read(h.m[:])
}

// sample records HeapInuse.
func (h *heapPeak) sample() {
	h.read()
	h.inuse = max(h.inuse, h.m[1].Value.Uint64()+h.m[2].Value.Uint64())
}

// settle collects garbage and records the live heap; call it while the
// engine is still reachable.
func (h *heapPeak) settle() {
	runtime.GC()
	h.read()
	h.cur = max(h.cur, h.m[0].Value.Uint64())
}

// episode closes the current episode.
func (h *heapPeak) episode() {
	h.live = append(h.live, float64(h.cur)/(1<<20))
	h.cur = 0
}

// report adds heap_live_mb and heap_inuse_peak_mb.
func (h *heapPeak) report(rep *report) {
	rep.add("heap_live_mb", median(h.live), "MB", len(h.live))
	rep.add("heap_inuse_peak_mb", float64(h.inuse)/(1<<20), "MB", h.samples)
}

// memDelta is the allocation and GC activity between two MemStats reads.
type memDelta struct {
	mallocs, bytes, gcs, pauseNs uint64
}

func (d *memDelta) add(o memDelta) {
	d.mallocs += o.mallocs
	d.bytes += o.bytes
	d.gcs += o.gcs
	d.pauseNs += o.pauseNs
}

// reportGC adds the collections and pause time of the traced measured
// windows (the benchmark's own forced collections fall outside them).
func (d memDelta) reportGC(rep *report) {
	rep.add("runtime.gc_cycles", float64(d.gcs), "count", 0)
	rep.add("runtime.gc_pause_ns", float64(d.pauseNs), "ns", int(d.gcs))
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func memSince(before runtime.MemStats) memDelta {
	after := readMem()
	return memDelta{
		mallocs: after.Mallocs - before.Mallocs,
		bytes:   after.TotalAlloc - before.TotalAlloc,
		gcs:     uint64(after.NumGC - before.NumGC),
		pauseNs: after.PauseTotalNs - before.PauseTotalNs,
	}
}
