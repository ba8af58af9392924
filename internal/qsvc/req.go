package qsvc

import (
	"sync"
	"sync/atomic"
	"time"
)

// Request completion states. A request moves from stPending to exactly
// one of the terminal states by a single CompareAndSwap — that CAS is
// the conservation argument of the whole layer: the timeout sweep
// (stPending→stExpired) and a dequeuing consumer (stPending→stDelivered)
// race idempotently on the same word, one of them wins, and the loser's
// path delivers nothing. See ALGORITHM.md, "The queue-service layer".
const (
	stPending int32 = iota
	// stDelivered: a consumer's claim CAS won; the value was returned
	// from a dequeue exactly once.
	stDelivered
	// stExpired: the timeout sweep's CAS won (or Delete aborted the
	// request); the value still physically occupies the underlying
	// queue as a tombstone until some dequeue pops and discards it.
	stExpired
)

// Req is the completion handle of a deadline-armed enqueue. The
// producer that armed the deadline watches Done(); the channel closes
// when the request reaches a terminal state, after which Err reports
// nil (delivered), a wfq.ErrDeadlineExceeded-wrapped error (swept), or
// wfq.ErrClosed (queue deleted, or the enqueue itself failed).
//
// Requests without deadlines never materialize a Req — the no-deadline
// path stays allocation-parity with the bare facade.
type Req struct {
	deadline int64 // unix nanoseconds
	state    atomic.Int32
	err      error // written before done closes; read only after Done
	done     chan struct{}
}

// Done is closed when the request reaches a terminal state.
func (r *Req) Done() <-chan struct{} { return r.done }

// Err reports the terminal error: nil while pending or when delivered,
// the deadline/closed error otherwise. Only meaningful — in the sense
// of being stable — once Done is closed.
func (r *Req) Err() error {
	select {
	case <-r.done:
		return r.err
	default:
		return nil
	}
}

// Deadline reports the request's absolute deadline.
func (r *Req) Deadline() time.Time { return time.Unix(0, r.deadline) }

// complete tries to move the request from pending to the terminal state
// `to`, recording err and closing Done on success. Exactly one caller
// ever succeeds; the error write happens before the channel close, so
// every Done-gated reader observes it.
func (r *Req) complete(to int32, err error) bool {
	if !r.claim(to) {
		return false
	}
	r.finish(err)
	return true
}

// claim is complete's CAS alone: the winner owns the request and must
// call finish. Splitting the two lets the winner publish its accounting
// before the producer wakes.
func (r *Req) claim(to int32) bool { return r.state.CompareAndSwap(stPending, to) }

// finish records err and closes Done; only claim's winner calls it.
func (r *Req) finish(err error) {
	r.err = err
	close(r.done)
}

// dlHeap is the per-queue deadline min-heap the timeout sweep pops.
// Only deadline-ARMED enqueues touch it (one push under the mutex), so
// the no-deadline hot path never takes this lock. Entries whose request
// completed some other way (delivered, aborted) are removed lazily when
// they reach the top — the sweep's unit of work stays O(expired +
// completed-at-top), independent of queue depth.
type dlHeap struct {
	mu sync.Mutex
	h  []*Req
}

// push inserts r keyed by its deadline.
func (d *dlHeap) push(r *Req) {
	d.mu.Lock()
	d.h = append(d.h, r)
	// sift up
	i := len(d.h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if d.h[p].deadline <= d.h[i].deadline {
			break
		}
		d.h[p], d.h[i] = d.h[i], d.h[p]
		i = p
	}
	d.mu.Unlock()
}

// popLocked removes and returns the minimum-deadline entry. Caller
// holds mu and has checked len > 0.
func (d *dlHeap) popLocked() *Req {
	h := d.h
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	d.h = h[:n]
	// sift down
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && d.h[l].deadline < d.h[m].deadline {
			m = l
		}
		if r < n && d.h[r].deadline < d.h[m].deadline {
			m = r
		}
		if m == i {
			break
		}
		d.h[i], d.h[m] = d.h[m], d.h[i]
		i = m
	}
	return top
}

// size reports the current heap size (armed requests not yet lazily
// collected); diagnostics only.
func (d *dlHeap) size() int {
	d.mu.Lock()
	n := len(d.h)
	d.mu.Unlock()
	return n
}
