package core

import (
	"combining/internal/word"
)

// WaitBuffer holds the records of combines performed at one switch, keyed
// by the combined message's id.  The same id can key several records: a
// combined message that is still queued may combine again with a later
// arrival, so replies decombine in LIFO order — the most recent combine is
// undone first.
//
// The record type is generic so transports can attach routing state (reply
// path headers, port indexes) to the basic Record.
//
// The buffer has a capacity: real combining switches have a small
// associative memory, and when it is full the switch simply forwards
// requests uncombined.  The paper notes that such partial combining is
// always correct; experiment A1 measures its performance cost.
type WaitBuffer[R any] struct {
	capacity int
	size     int
	recs     map[word.ReqID][]R

	// Combines counts successful pushes, for the combining-rate metrics.
	Combines int64
	// Rejections counts pushes refused for capacity.
	Rejections int64
}

// Unbounded is the WaitBuffer capacity for an unlimited buffer.
const Unbounded = -1

// NewWaitBuffer returns a buffer holding at most capacity records;
// capacity 0 disables combining entirely and Unbounded removes the limit.
// The record map is made on the first push, so a switch that never
// combines costs no map.
func NewWaitBuffer[R any](capacity int) *WaitBuffer[R] {
	return &WaitBuffer[R]{capacity: capacity}
}

// Len returns the number of records currently held.
func (b *WaitBuffer[R]) Len() int { return b.size }

// CanPush reports whether the buffer has room for another record.
func (b *WaitBuffer[R]) CanPush() bool {
	return b.capacity == Unbounded || b.size < b.capacity
}

// Push saves a combine record under the combined message's id.  It reports
// false — meaning the transport must not combine — when the buffer is full.
func (b *WaitBuffer[R]) Push(id word.ReqID, rec R) bool {
	if !b.CanPush() {
		b.Rejections++
		return false
	}
	if b.recs == nil {
		b.recs = make(map[word.ReqID][]R)
	}
	b.recs[id] = append(b.recs[id], rec)
	b.size++
	b.Combines++
	return true
}

// PopMatch retrieves and removes the most recent record for a reply id that
// the match predicate accepts, scanning from newest to oldest.  Records the
// predicate rejects stay buffered untouched.  Fault-tolerant transports use
// this with core.CanDecombine so a stale record (its combined message was
// dropped downstream of the combine) is skipped rather than popped: the
// record's second requester recovers by retransmitting, and the stale entry
// merely occupies a slot until the run ends.
func (b *WaitBuffer[R]) PopMatch(id word.ReqID, match func(R) bool) (R, bool) {
	if b.size == 0 {
		var zero R
		return zero, false // most replies pass an empty buffer: skip the map
	}
	stack := b.recs[id]
	for i := len(stack) - 1; i >= 0; i-- {
		if !match(stack[i]) {
			continue
		}
		rec := stack[i]
		if len(stack) == 1 {
			delete(b.recs, id)
		} else {
			b.recs[id] = append(stack[:i:i], stack[i+1:]...)
		}
		b.size--
		return rec, true
	}
	var zero R
	return zero, false
}

// Flush empties the buffer and returns every record — the crash path of a
// switch losing its associative memory.  Record order is unspecified;
// callers must fold the records into order-insensitive state (sets,
// counters).  Combines/Rejections totals are left intact: they describe
// work done, including work a crash later threw away.
func (b *WaitBuffer[R]) Flush() []R {
	if b.size == 0 {
		return nil
	}
	out := make([]R, 0, b.size)
	for id, stack := range b.recs {
		out = append(out, stack...)
		delete(b.recs, id)
	}
	b.size = 0
	return out
}

// Pop retrieves and removes the most recent record for a reply id.  ok is
// false when the reply was never combined at this buffer and should be
// forwarded as is.
func (b *WaitBuffer[R]) Pop(id word.ReqID) (R, bool) {
	if b.size == 0 {
		var zero R
		return zero, false
	}
	stack := b.recs[id]
	if len(stack) == 0 {
		var zero R
		return zero, false
	}
	rec := stack[len(stack)-1]
	if len(stack) == 1 {
		delete(b.recs, id)
	} else {
		b.recs[id] = stack[:len(stack)-1]
	}
	b.size--
	return rec, true
}
