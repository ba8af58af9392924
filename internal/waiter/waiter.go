// Package waiter is the blocking and lifecycle layer over the repo's
// non-blocking queues: an eventcount-style parking primitive whose fast
// path is wait-free, plus linearizable Close/drain semantics and the
// generic bounded-spin-then-park dequeue loops every frontend shares.
//
// # Why an eventcount
//
// The KP queue (and every other queue here) is non-blocking by
// construction: an empty deq() returns immediately. A consumer that
// wants to SLEEP on empty needs a separate wait/notify protocol, and the
// classic lost-wakeup hazard sits exactly in the gap between "I probed
// and found nothing" and "I am parked": an element enqueued in that gap
// must still wake the consumer. The eventcount closes the gap with a
// three-step consumer protocol —
//
//	register (waiters++)  →  key := seq  →  recheck the queue  →  park
//
// — paired with a producer that makes its element visible FIRST and only
// then checks for waiters and bumps seq. Interleave them any way you
// like: either the consumer's recheck sees the element, or the
// producer's waiter-probe sees the registration and its seq bump
// invalidates the consumer's key, so Wait returns without parking. The
// argument is the store-buffering (Dekker) pattern; Go's sync/atomic
// operations are sequentially consistent, which is exactly the fence
// strength it needs.
//
// # Wake channels
//
// A parked waiter sleeps on its own capacity-1 channel, listed under the
// eventcount's mutex; a broadcast sends each listed channel one token
// and empties the list. Channels come from a free list and return to it
// empty — a waiter that leaves through its context and finds its channel
// already unlisted drains the token the broadcast sent — so once the
// free list holds as many channels as waiters ever park at once, parking
// and waking allocate nothing. Channels are not keyed by tid: a released
// lease's parked waiter and the tid's next holder can be parked at once,
// and one broadcast must wake both.
//
// # Progress
//
// The producer side is wait-free: one atomic load when no waiter is
// registered (the common case), one mutex-guarded broadcast when one is.
// The consumer's FAST path — element available — is the underlying
// queue's own wait-free dequeue plus one atomic sequence load; only the
// slow path (provably empty queue) parks, and blocking-on-empty is not a
// progress violation: wait-freedom bounds the steps of operations, and
// an operation whose specification says "wait for an element" has
// nothing to complete until one arrives. See ALGORITHM.md, "Blocking and
// termination".
package waiter

import (
	"context"
	"sync"
	"sync/atomic"

	"wfq/internal/yield"
)

// sepBytes matches internal/core's false-sharing unit (two cache lines,
// for the adjacent-line prefetcher).
const sepBytes = 128

// EventCount is the parking primitive: a sequence number producers bump
// when they publish work, a waiter count producers probe to skip the
// broadcast entirely when nobody sleeps, and the list of parked
// waiters' wake channels a broadcast signals and empties. Each parked
// waiter owns its channel for the length of one park; channels come
// from a free list and go back to it empty, so a warmed EventCount
// parks and wakes without allocating.
type EventCount struct {
	// seq counts notifications. A consumer snapshots it (the "key")
	// before its final empty recheck; Wait refuses to park if seq moved,
	// because the move may be the wakeup for an element the recheck
	// missed.
	seq atomic.Uint64
	_   [sepBytes - 8]byte
	// waiters counts registered consumers. Producers load it after
	// publishing; zero means no one can be between register and park, so
	// the notify is skipped — this keeps the uncontended enqueue cost at
	// one atomic load.
	waiters atomic.Int32
	_       [sepBytes - 4]byte

	mu sync.Mutex
	// parked holds the wake channel (capacity 1) of every waiter parked
	// on the current seq; broadcast sends each one token and empties it.
	parked []chan struct{}
	// free holds empty wake channels for the next parks.
	free []chan struct{}
}

// Register announces the caller as a waiter and returns the wait key.
// The caller MUST recheck the queue after Register returns and before
// Wait: the key is only as old as this call, and producers only promise
// to wake waiters registered before their element became visible.
// Every Register must be balanced by exactly one Unregister or Wait.
func (e *EventCount) Register() (key uint64) {
	e.waiters.Add(1)
	return e.seq.Load()
}

// Unregister withdraws a registration without waiting (the recheck found
// an element, or the caller is giving up for another reason).
func (e *EventCount) Unregister() {
	e.waiters.Add(-1)
}

// Wait parks the caller until a notification newer than key arrives, ctx
// is done, or the registration is consumed by a concurrent broadcast.
// It returns ctx.Err() if ctx ended the wait, nil otherwise. Wait
// consumes the registration in all cases.
func (e *EventCount) Wait(ctx context.Context, key uint64, tid int) error {
	e.mu.Lock()
	if e.seq.Load() != key {
		// A notify landed between the key snapshot and here — it may be
		// the wakeup for an element the caller's recheck missed, so do
		// not park; the caller re-probes.
		e.mu.Unlock()
		e.waiters.Add(-1)
		return nil
	}
	var ch chan struct{}
	if n := len(e.free); n > 0 {
		ch = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ch = make(chan struct{}, 1)
	}
	e.parked = append(e.parked, ch)
	e.mu.Unlock()

	yield.At(yield.WQBeforePark, tid, -1)
	var err error
	select {
	case <-ch:
	case <-ctx.Done():
		err = ctx.Err()
	}
	e.waiters.Add(-1)
	yield.At(yield.WQAfterWake, tid, -1)
	e.mu.Lock()
	if err != nil && !e.unpark(ch) {
		// A broadcast took ch off the list, so it sent the token under
		// mu before we got here: drain it, or the next park on this
		// channel would wake at once.
		select {
		case <-ch:
		default:
		}
	}
	e.free = append(e.free, ch)
	e.mu.Unlock()
	return err
}

// unpark removes ch from the parked list; false means a broadcast
// already removed it. Caller holds mu.
func (e *EventCount) unpark(ch chan struct{}) bool {
	for i, c := range e.parked {
		if c == ch {
			last := len(e.parked) - 1
			e.parked[i] = e.parked[last]
			e.parked[last] = nil
			e.parked = e.parked[:last]
			return true
		}
	}
	return false
}

// Notify wakes all current waiters if any are registered. Producers call
// it AFTER their element is visible (after the linearizing CAS); the
// publish-then-probe order is what makes the no-waiter fast path sound.
// Cost with no waiter: one atomic load.
func (e *EventCount) Notify(tid int) {
	if e.waiters.Load() == 0 {
		return
	}
	yield.At(yield.WQNotify, tid, -1)
	e.broadcast()
}

// Broadcast unconditionally wakes all current waiters (Close uses it:
// the closed flag, unlike an element, cannot be "re-observed" by a
// later prober counting on a second notify).
func (e *EventCount) Broadcast() {
	e.broadcast()
}

// broadcast bumps seq and sends every parked waiter its token. The bump
// and the sends happen under mu — the same lock Wait holds while
// deciding to park — so a waiter either sees the new seq (and refuses to
// park) or listed its channel before this broadcast, which signals it.
// A listed channel is empty (it left the free list empty, and only the
// broadcast that unlists it sends), so every token lands; the sends are
// non-blocking all the same, so mu is never held across a blocked one.
func (e *EventCount) broadcast() {
	e.mu.Lock()
	e.seq.Add(1)
	for i, ch := range e.parked {
		select {
		case ch <- struct{}{}:
		default:
		}
		e.parked[i] = nil
	}
	e.parked = e.parked[:0]
	e.mu.Unlock()
}

// Seq exposes the notification counter (tests and diagnostics).
func (e *EventCount) Seq() uint64 { return e.seq.Load() }

// Waiters exposes the registered-waiter count (tests and diagnostics).
func (e *EventCount) Waiters() int { return int(e.waiters.Load()) }
