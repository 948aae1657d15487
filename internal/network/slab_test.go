package network

import (
	"fmt"
	"testing"

	"combining/internal/core"
	"combining/internal/faults"
)

// scanOccupancy counts the messages inside the network the long way: every
// switch queue, wait-buffer record and memory-module request.
func scanOccupancy(sim *Sim) int {
	n := 0
	for _, col := range sim.stages {
		for line := range col.outQ {
			n += len(col.outQ[line]) + len(col.revQ[line])
		}
	}
	n += waitRecords(sim)
	for mod := 0; mod < sim.n; mod++ {
		n += sim.Memory().Module(mod).QueueLen()
	}
	return n
}

// slotHolders walks every place the interior keeps a slot — switch queues,
// wait records, memory metadata — and the free list, and reports any slot
// found in two places (an aliased handle or a double free).  It returns how
// many slots the interior holds.  Flush is the wait buffers' only walk, so
// this empties them: call it last.
func slotHolders(sim *Sim) (int, error) {
	where := make(map[handle]string)
	note := func(h handle, place string) error {
		if prev, dup := where[h]; dup {
			return fmt.Errorf("slot %d is in %s and in %s", h, prev, place)
		}
		where[h] = place
		return nil
	}
	for _, h := range sim.slab.free {
		if err := note(h, "the free list"); err != nil {
			return 0, err
		}
	}
	for s, col := range sim.stages {
		for line := range col.outQ {
			for _, h := range col.outQ[line] {
				if err := note(h, fmt.Sprintf("forward queue %d/%d", s, line)); err != nil {
					return 0, err
				}
			}
			for _, h := range col.revQ[line] {
				if err := note(h, fmt.Sprintf("reverse queue %d/%d", s, line)); err != nil {
					return 0, err
				}
			}
		}
		for i := range col.sw {
			for _, rec := range col.sw[i].wait.Flush() {
				if err := note(rec.second, fmt.Sprintf("a wait record at %d/%d", s, i)); err != nil {
					return 0, err
				}
			}
		}
	}
	for mod, shard := range sim.meta {
		for _, h := range shard {
			if err := note(h, fmt.Sprintf("module %d's metadata", mod)); err != nil {
				return 0, err
			}
		}
	}
	return len(where) - len(sim.slab.free), nil
}

// TestSlabSlotsReturnAfterDrain is the slot accounting: every slot is freed
// exactly once.  After a drain, a healthy machine has every slot back on
// the free list.  Under a fault plan the tracker can call the machine
// drained while retransmitted copies are still moving, so the machine idles
// until its queues and modules are empty; then every slot not on the free
// list must be held by a stale wait record or stale metadata entry (left
// when a combined message or its reply was lost, and never matched again),
// and no slot may be held twice or leaked.
func TestSlabSlotsReturnAfterDrain(t *testing.T) {
	const n = 16
	for _, tc := range []struct {
		name string
		plan *faults.Plan
	}{
		{"healthy", nil},
		{"faulted", faults.Default(7)},
		{"adversarial", faults.DefaultAdversarial(7)},
		{"crash", faults.DefaultCrash(7)},
	} {
		for _, workers := range []int{1, 2} {
			cfg := Config{Procs: n, WaitBufCap: core.Unbounded, Workers: workers, Faults: tc.plan}
			if cfg.Validate() != nil {
				continue // the plan pins the serial stepper
			}
			t.Run(fmt.Sprintf("%s/w%d", tc.name, workers), func(t *testing.T) {
				inj := make([]Injector, n)
				for p := range inj {
					inj[p] = &stopAfter{
						Stochastic: NewStochastic(p, n, TrafficConfig{Rate: 0.8, HotFraction: 0.5, Window: 4}, 19),
						remaining:  150,
					}
				}
				sim := NewSim(cfg, inj)
				if !sim.Drain(200000) {
					t.Fatalf("did not drain: %s", sim.StallReport())
				}
				if sim.Stats().Combines == 0 {
					t.Fatal("no request combined — the wait-record slots went untested")
				}
				if tc.plan == nil {
					if live := sim.slab.live(); live != 0 {
						t.Fatalf("%d slots still live after draining a healthy machine", live)
					}
				}
				// Idle until the queues and modules have been empty for
				// longer than the link's longest reorder deferral.
				for i, quiet := 0, 0; i < 5000 && quiet < 64; i++ {
					sim.Step()
					if quiet++; scanOccupancy(sim) > waitRecords(sim) {
						quiet = 0
					}
				}
				held, err := slotHolders(sim)
				if err != nil {
					t.Fatal(err)
				}
				if live := sim.slab.live(); live != held {
					t.Fatalf("%d slots live but only %d held anywhere: %d leaked", live, held, live-held)
				}
			})
		}
	}
}

func waitRecords(sim *Sim) int {
	n := 0
	for _, col := range sim.stages {
		for _, sw := range col.sw {
			n += sw.wait.Len()
		}
	}
	return n
}
