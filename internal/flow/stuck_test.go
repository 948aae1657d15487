package flow

import (
	"math/rand"
	"testing"
)

// TestStuckLazyMatchesEager: a caller that reads its in-flight count only
// when Stuck says Observe needs it trips on exactly the cycle a caller that
// always passes the true count does, over random progress and occupancy
// sequences that include quiescent stretches and long freezes.
func TestStuckLazyMatchesEager(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		limit := int64(1 + rng.Intn(20))
		eager, lazy := NewWatchdog(limit), NewWatchdog(limit)
		var sig int64
		reads := 0
		for cycle := int64(1); cycle <= 400; cycle++ {
			if rng.Intn(8) == 0 {
				sig++ // this cycle moved something
			}
			inflight := rng.Intn(3) // 0 some of the time: a quiescent machine
			got := 0
			if lazy.Stuck(sig) {
				got = inflight
				reads++
			}
			te, tl := eager.Observe(cycle, inflight, sig), lazy.Observe(cycle, got, sig)
			if te != tl || eager.TripCycle() != lazy.TripCycle() {
				t.Fatalf("trial %d cycle %d: eager trip %v@%d, lazy trip %v@%d",
					trial, cycle, te, eager.TripCycle(), tl, lazy.TripCycle())
			}
		}
		if reads == 0 {
			t.Fatalf("trial %d: the lazy caller never read its count", trial)
		}
	}
}

// TestStuckOnlyWhenArmedAndFrozen: Stuck is false for a nil, disabled or
// tripped watchdog and for a signature that moved.
func TestStuckOnlyWhenArmedAndFrozen(t *testing.T) {
	var nilW *Watchdog
	if nilW.Stuck(0) || NewWatchdog(0).Stuck(0) {
		t.Fatal("a nil or disabled watchdog asked for the in-flight count")
	}
	w := NewWatchdog(2)
	w.Observe(1, 1, 5)
	if w.Stuck(6) {
		t.Fatal("Stuck on a moved signature")
	}
	if !w.Stuck(5) {
		t.Fatal("not Stuck on a repeated signature")
	}
	w.Observe(2, 1, 5)
	w.Observe(3, 1, 5)
	if !w.Tripped() || w.Stuck(5) {
		t.Fatalf("tripped=%v stuck=%v; a tripped watchdog needs no count", w.Tripped(), w.Stuck(5))
	}
}
