package qsvc

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"wfq"
)

// Request completion states: the low stBits of a record's state word.
// The bits above them hold the record's incarnation sequence number,
// bumped each time the record is armed, so the word names one
// incarnation's state. A request moves from stPending to exactly one of
// the terminal states by a single CompareAndSwap from the exact
// (seq, stPending) word — that CAS is the conservation argument of the
// whole layer: the timeout sweep (stPending→stExpired), a dequeuing
// consumer (stPending→stDelivered) and an abort (stPending→stAborted)
// race on the same word, one of them wins, and the losers' paths
// deliver nothing. A party holding a stale incarnation's seq (a
// tombstone, a heap entry) fails its CAS against a re-armed record. See
// ALGORITHM.md, "The queue-service layer".
const (
	stPending uint64 = iota
	// stDelivered: a consumer's claim CAS won; the value was returned
	// from a dequeue exactly once.
	stDelivered
	// stExpired: the timeout sweep's CAS won; the value still
	// physically occupies the underlying queue as a tombstone until
	// some dequeue pops and discards it.
	stExpired
	// stAborted: Delete aborted the request, or its enqueue failed.
	stAborted

	stBits = 2
	stMask = 1<<stBits - 1
)

// Req is the completion record of a deadline-armed enqueue. The
// producer that armed the deadline receives one value from Done when the
// request reaches a terminal state, after which Err reports nil
// (delivered), a wfq.ErrDeadlineExceeded-wrapped error (swept), or
// wfq.ErrClosed (queue deleted, or the enqueue itself failed).
//
// Session.Enqueue returns a fresh record per request; Session.EnqueueWait
// re-arms the session's own record, which is why Done carries a token
// rather than closing. Requests without deadlines never materialize a
// Req — the no-deadline path stays allocation-parity with the bare
// facade.
type Req struct {
	name     string // queue name, for Err's message
	deadline int64  // unix nanoseconds; the current incarnation's
	state    atomic.Uint64
	done     chan struct{} // capacity 1: the terminal transition's token
}

// newReq builds an unarmed record for queue name.
func newReq(name string) *Req {
	return &Req{name: name, done: make(chan struct{}, 1)}
}

// Done delivers one value when the request reaches a terminal state;
// receive it once.
func (r *Req) Done() <-chan struct{} { return r.done }

// Err reports the terminal error, read from the state word: nil while
// pending or when delivered, the deadline/closed error otherwise.
func (r *Req) Err() error {
	switch r.state.Load() & stMask {
	case stExpired:
		return fmt.Errorf("request on %q: %w", r.name, wfq.ErrDeadlineExceeded)
	case stAborted:
		return fmt.Errorf("request on %q: %w", r.name, wfq.ErrClosed)
	}
	return nil
}

// Deadline reports the request's absolute deadline.
func (r *Req) Deadline() time.Time { return time.Unix(0, r.deadline) }

// arm starts the record's next incarnation, pending until deadline, and
// returns its seq. Only the record's owner arms it, and only once the
// previous incarnation is terminal and its token received (or the
// record is new), so no other party can hold the pending word of an
// incarnation about to be replaced.
func (r *Req) arm(deadline int64) uint64 {
	seq := r.state.Load()>>stBits + 1
	r.deadline = deadline
	r.state.Store(seq << stBits)
	return seq
}

// claim moves incarnation seq from pending to the terminal state `to`.
// Exactly one caller per incarnation succeeds; the winner owns the
// request and calls finish once its accounting is published, so the
// producer wakes to counts that include it.
func (r *Req) claim(seq, to uint64) bool {
	return r.state.CompareAndSwap(seq<<stBits|stPending, seq<<stBits|to)
}

// finish hands the producer its token. The channel is empty — one token
// per incarnation, and the owner receives it before re-arming — so the
// token always lands; the send is non-blocking all the same, because
// the sweep calls finish holding the heap's mutex.
func (r *Req) finish() {
	select {
	case r.done <- struct{}{}:
	default:
	}
}

// dlHeap is the per-queue deadline min-heap the timeout sweep pops.
// Only deadline-ARMED enqueues touch it (one push under the mutex), so
// the no-deadline hot path never takes this lock. Entries whose
// incarnation completed some other way (delivered, aborted) are removed
// lazily when they reach the top — the sweep's unit of work stays
// O(expired + completed-at-top), independent of queue depth.
type dlHeap struct {
	mu sync.Mutex
	h  []dlEntry
}

// dlEntry is one armed incarnation in the heap, held by value: its
// deadline and seq are copied at arming, so re-arming the record cannot
// disturb the heap order, and an entry whose seq no longer matches the
// record's state word is stale and popped like a settled one.
type dlEntry struct {
	deadline int64
	seq      uint64
	r        *Req
}

// pending reports whether the entry's incarnation is still pending.
func (e dlEntry) pending() bool { return e.r.state.Load() == e.seq<<stBits|stPending }

// push inserts e keyed by its deadline.
func (d *dlHeap) push(e dlEntry) {
	d.mu.Lock()
	d.h = append(d.h, e)
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
func (d *dlHeap) popLocked() dlEntry {
	h := d.h
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = dlEntry{}
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
