package par

import (
	"runtime"
	"sync/atomic"
)

// This file holds the spin/backoff vocabulary shared by the phase barriers
// below and by the contention-free primitives in pkg/sync: a per-episode
// spin-versus-yield policy for fixed-width barrier participants, and a
// per-waiter backoff for open-ended spins (a lock waiter parked on its own
// queue node, a consumer waiting for a full/empty cell to fill).  Both obey
// the same rule: spinning is only worth it when the goroutine being waited
// for can run on another processor, so any width-versus-GOMAXPROCS deficit
// collapses the budget to zero and the waiter yields immediately.

// CacheLine is the coherence-granule size the padded spin flags are spaced
// by; 64 bytes covers the common cases (x86-64, most arm64).  Exported so
// pkg/sync pads its queue nodes, shards and flags identically.
const CacheLine = 64

// spinLimit bounds the pure spin before a waiter starts yielding.
const spinLimit = 256

// SpinPolicy is the shared spin-versus-yield budget for n fixed
// participants, re-evaluated against GOMAXPROCS once per barrier episode by
// whichever participant the implementation designates (the last arriver for
// central barriers, worker 0 for dissemination and tournament barriers) so
// a GOMAXPROCS change mid-run takes effect by the next episode without
// every waiter hammering the scheduler lock.
type SpinPolicy struct {
	n      int32
	budget atomic.Int32
}

// Init sets the participant count and computes the initial budget.
func (s *SpinPolicy) Init(n int) {
	s.n = int32(n)
	s.Refresh()
}

// Refresh recomputes the budget against the current GOMAXPROCS: zero (yield
// immediately) when the participants outnumber the processors, the full
// spin limit otherwise.
func (s *SpinPolicy) Refresh() {
	if int(s.n) > runtime.GOMAXPROCS(0) {
		s.budget.Store(0)
	} else {
		s.budget.Store(spinLimit)
	}
}

// SpinBudget returns the pure-spin iteration budget for the current
// episode.
func (s *SpinPolicy) SpinBudget() int32 { return s.budget.Load() }

// Backoff is a per-waiter spin-then-yield loop state for open-ended waits
// where the peer count is unknown (lock queues, full/empty cells): the
// first SpinBudget iterations burn cycles waiting for a remote store to
// land, everything after yields the processor.  On a single-processor
// runtime the budget is zero from the start — the store the waiter wants
// can only happen if the waiter gets off the processor.  The zero value
// yields immediately; use NewBackoff for the GOMAXPROCS-aware budget.
type Backoff struct {
	spins  int32
	budget int32
}

// NewBackoff returns a backoff with the spin budget appropriate for the
// current GOMAXPROCS.
func NewBackoff() Backoff {
	if runtime.GOMAXPROCS(0) <= 1 {
		return Backoff{}
	}
	return Backoff{budget: spinLimit}
}

// Pause burns one spin iteration while budget remains and yields the
// processor after.
func (b *Backoff) Pause() {
	if b.spins < b.budget {
		b.spins++
		return
	}
	runtime.Gosched()
}

// Spun reports whether the spin budget is used up, so the next Pause would
// yield.  Waiters that have a way to block use it to park instead of
// yielding: with many more waiters than processors a yield only cycles the
// run queue, and the goroutine the waiter needs may be far back in it.
func (b *Backoff) Spun() bool { return b.spins >= b.budget }

// Reset restarts the spin budget; call it after the awaited condition fired
// so the next wait spins again.
func (b *Backoff) Reset() { b.spins = 0 }
