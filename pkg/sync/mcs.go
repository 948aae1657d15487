package sync

import (
	stdsync "sync"
	"sync/atomic"

	"combining/internal/par"
)

// QNode is the queue node an MCSLock waiter spins on.  Each node occupies
// its own cache line, so a waiter's spin loads hit a line that exactly one
// other goroutine — its predecessor in the queue — will ever write, and the
// write that ends the spin is the only remote reference the handoff costs.
// A QNode may be reused freely once the Acquire/Release pair that used it
// has completed, but must never be shared by two concurrent acquisitions.
//
// wait is 1 while the waiter spins, 2 once it has parked on wake, and 0
// when the predecessor hands the lock over.
type QNode struct {
	next atomic.Pointer[QNode]
	wait atomic.Uint32
	wake chan struct{} // made on the node's first park, reused after
	_    [par.CacheLine - 24]byte
}

// park blocks the waiter on q until the handoff, unless it lands first.
func (q *QNode) park() {
	if q.wake == nil {
		q.wake = make(chan struct{}, 1)
	}
	if q.wait.CompareAndSwap(1, 2) {
		<-q.wake
	}
}

// MCSLock is a Mellor-Crummey–Scott queue lock: acquisition is a single
// atomic swap on the tail pointer (the paper's combinable I_v mapping with
// the old value returned — a swap), after which the waiter spins only on
// its own QNode.  Release either clears the tail (uncontended) or performs
// one remote store into the successor's node.  Remote references per
// acquisition are O(1) no matter how many goroutines contend, where a
// test-and-set or ticket lock generates O(waiters) coherence traffic per
// handoff.
//
// The zero value is an unlocked lock.  Use Lock/Unlock for the pooled
// convenience API, or Acquire/Release with caller-owned QNodes to keep the
// queue nodes in memory the caller controls.
type MCSLock struct {
	tail atomic.Pointer[QNode]
	_    [par.CacheLine - 8]byte
	pool stdsync.Pool
}

// Acquire enqueues q and blocks until the caller holds the lock.  q must
// not be in use by any other acquisition.
func (l *MCSLock) Acquire(q *QNode) {
	q.next.Store(nil)
	q.wait.Store(1)
	pred := l.tail.Swap(q) // the one atomic RMW of the acquisition
	if pred == nil {
		return // lock was free: no predecessor, no spinning
	}
	// Link behind the predecessor, then spin on our own line until the
	// predecessor's release stores the handoff.  Once the spin budget is
	// gone, park rather than yield: with far more waiters than processors
	// a yielding waiter keeps the whole queue in the run queue, and each
	// handoff then waits for the scheduler to cycle round to the successor.
	pred.next.Store(q)
	bo := par.NewBackoff()
	for q.wait.Load() != 0 {
		if bo.Spun() {
			q.park()
			return
		}
		bo.Pause()
	}
}

// Release unlocks the lock acquired with q, handing it to the successor if
// one is queued.
func (l *MCSLock) Release(q *QNode) {
	next := q.next.Load()
	if next == nil {
		// No known successor: try to close the queue.  Failure means a
		// new waiter swapped itself in after us but has not linked yet;
		// wait for the link (it is at most two instructions away on the
		// waiter's side).
		if l.tail.CompareAndSwap(q, nil) {
			return
		}
		bo := par.NewBackoff()
		for next = q.next.Load(); next == nil; next = q.next.Load() {
			bo.Pause()
		}
	}
	// The single remote write that ends the successor's spin; a parked
	// successor also needs its wake token.
	if next.wait.Swap(0) == 2 {
		next.wake <- struct{}{}
	}
}

// Lock acquires the lock using a pooled QNode and returns it; pass the
// node to Unlock.  The pool keeps the steady state allocation-free while
// letting callers ignore queue-node management entirely.
func (l *MCSLock) Lock() *QNode {
	q, _ := l.pool.Get().(*QNode)
	if q == nil {
		q = new(QNode)
	}
	l.Acquire(q)
	return q
}

// Unlock releases the lock and recycles the QNode returned by Lock.
func (l *MCSLock) Unlock(q *QNode) {
	l.Release(q)
	l.pool.Put(q)
}
