package combining_test

// Fault-mode behaviour pin: the three cycle engines run a fixed hot-spot
// workload under the standard drop, adversarial and crash plans, and the
// FNV-1a digest of each final Snapshot must match the recorded constant.
// Every fault draw, crash edge and limbo release feeds the snapshot's
// counters and latency histogram, so any reordering of the per-cycle fault
// sequence shows up here as a changed digest.

import (
	"fmt"
	"hash/fnv"
	"testing"

	"combining/internal/busnet"
	"combining/internal/core"
	"combining/internal/faults"
	"combining/internal/hypercube"
	"combining/internal/network"
	"combining/internal/stats"
)

// cutoffInjector issues stochastic traffic until cycle stop, then goes quiet
// so the machine can drain.
type cutoffInjector struct {
	*network.Stochastic
	stop int64
}

func (c cutoffInjector) Next(cycle int64) (network.Injection, bool) {
	if cycle >= c.stop {
		return network.Injection{}, false
	}
	return c.Stochastic.Next(cycle)
}

type digestEngine interface {
	Run(cycles int)
	Drain(maxCycles int) bool
	Snapshot() stats.Snapshot
}

func faultDigest(t *testing.T, eng string, workers int, plan *faults.Plan, seed uint64) (string, stats.Snapshot) {
	t.Helper()
	const (
		procs  = 16
		issue  = 1000
		cycles = 1200
	)
	inj := make([]network.Injector, procs)
	traffic := network.TrafficConfig{Rate: 0.6, HotFraction: 0.25}
	for p := range inj {
		inj[p] = cutoffInjector{network.NewStochastic(p, procs, traffic, seed), issue}
	}
	var sim digestEngine
	switch eng {
	case "omega":
		sim = network.NewSim(network.Config{Procs: procs, WaitBufCap: core.Unbounded,
			Workers: workers, Faults: plan}, inj)
	case "hypercube":
		sim = hypercube.NewSim(hypercube.Config{Nodes: procs, WaitBufCap: core.Unbounded,
			Workers: workers, Faults: plan}, inj)
	case "busnet":
		sim = busnet.NewSim(busnet.Config{Procs: procs, Banks: 4, WaitBufCap: core.Unbounded,
			Workers: workers, Faults: plan}, inj)
	}
	sim.Run(cycles)
	if !sim.Drain(50000) {
		t.Fatalf("%s/w%d: did not drain", eng, workers)
	}
	snap := sim.Snapshot()
	h := fnv.New64a()
	h.Write(snap.JSON())
	return fmt.Sprintf("%016x", h.Sum64()), snap
}

// TestFaultModeDigests pins each engine's final snapshot under each
// standard fault plan.  Plans without adversarial delivery also run at
// Workers=2, which must reproduce the serial digest.
func TestFaultModeDigests(t *testing.T) {
	const seed = 7
	// fired names counters each plan must move, so a digest can never
	// pin a run in which the plan was silently disconnected.
	plans := []struct {
		name  string
		plan  func(uint64) *faults.Plan
		fired []string
	}{
		{"default", faults.Default, []string{"drops_fwd", "drops_rev", "retries"}},
		{"adversarial", faults.DefaultAdversarial, []string{"reordered_held", "dup_injected", "corrupt_dropped"}},
		{"crash", faults.DefaultCrash, []string{"crashes", "restores", "checkpoints"}},
	}
	want := map[string]string{
		"omega/default":         "9eb6346efed71623",
		"omega/adversarial":     "d8913dd3c37986c2",
		"omega/crash":           "662c481916092aa2",
		"hypercube/default":     "21022f0fafa5c32c",
		"hypercube/adversarial": "c0574cd0f57afd93",
		"hypercube/crash":       "50c935d1a4549487",
		"busnet/default":        "5216c46d58353a73",
		"busnet/adversarial":    "24c4339eef761d50",
		"busnet/crash":          "1ac00bdaa4d9c1df",
	}
	for _, eng := range []string{"omega", "hypercube", "busnet"} {
		for _, p := range plans {
			key := eng + "/" + p.name
			widths := []int{1, 2}
			if p.plan(seed).HasAdversarial() {
				widths = widths[:1]
			}
			for _, w := range widths {
				got, snap := faultDigest(t, eng, w, p.plan(seed), seed)
				if got != want[key] {
					t.Errorf("%s/w%d: digest %s, want %s", key, w, got, want[key])
				}
				for _, c := range p.fired {
					if snap.Counter(c) == 0 {
						t.Errorf("%s/w%d: counter %s is 0; the plan did not fire", key, w, c)
					}
				}
			}
		}
	}
}
