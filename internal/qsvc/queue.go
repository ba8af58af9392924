package qsvc

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"wfq"
)

// env is the request envelope flowing through the underlying facade
// queue — BY VALUE, so the no-deadline path adds no allocation to
// whatever the backend does. r is nil for plain requests; only
// deadline-armed requests carry a completion record, and seq names the
// incarnation of r this envelope was armed with.
type env[T any] struct {
	v   T
	enq int64 // unix nanoseconds at admission (queue-delay observability)
	r   *Req
	seq uint64
}

// Queue is one named, generation-keyed queue in a Registry: a facade
// queue wrapped in the envelope layer that adds deadlines, the timeout
// sweep, delay observability, and admission control. Obtain one from
// Registry.Create or Registry.Get and operate through Sessions.
type Queue[T any] struct {
	name string
	gen  uint64
	cfg  Config
	wq   *wfq.Queue[env[T]]

	// depth counts LIVE requests: admitted minus delivered minus
	// expired. A swept request's element still occupies the backend as
	// a tombstone, but it stopped counting against the admission cap
	// the moment the sweep's CAS won — the cap bounds live work, not
	// dead bytes.
	depth    atomic.Int64
	inflight atomic.Int64 // deadline-armed requests still pending

	admitted   atomic.Int64
	delivered  atomic.Int64
	expired    atomic.Int64
	rejected   atomic.Int64
	aborted    atomic.Int64 // armed requests failed by Delete/enqueue-abort
	tombstones atomic.Int64 // swept envelopes discarded by dequeuers

	dl     dlHeap
	delays Hist
}

// newQueue builds a queue; the registry assigns name and generation.
func newQueue[T any](name string, gen uint64, cfg Config) *Queue[T] {
	cfg = cfg.withDefaults()
	return &Queue[T]{
		name: name,
		gen:  gen,
		cfg:  cfg,
		wq:   wfq.New[env[T]](cfg.MaxThreads, cfg.options()...),
	}
}

// Name reports the queue's registered name.
func (q *Queue[T]) Name() string { return q.name }

// Gen reports the queue's creation generation: registry-unique and
// strictly increasing, so a handle to a deleted queue can never be
// mistaken for the queue a recreated name now designates.
func (q *Queue[T]) Gen() uint64 { return q.gen }

// Config reports the queue's (defaulted) configuration.
func (q *Queue[T]) Config() Config { return q.cfg }

// Depth reports the live request count (admission-cap view).
func (q *Queue[T]) Depth() int64 { return q.depth.Load() }

// Closed reports whether Close/Delete has begun on this queue.
func (q *Queue[T]) Closed() bool { return q.wq.Closed() }

// Delays reports the enqueue→dequeue latency summary.
func (q *Queue[T]) Delays() DelaySnapshot { return q.delays.Snapshot() }

// Stats is the per-queue observability snapshot (the stats wire verb
// marshals it).
type Stats struct {
	Name       string        `json:"name"`
	Gen        uint64        `json:"gen"`
	Backend    string        `json:"backend"`
	Shards     int           `json:"shards,omitempty"`
	Closed     bool          `json:"closed"`
	Depth      int64         `json:"depth"`
	Len        int64         `json:"len"` // physical backend length incl. tombstones
	Inflight   int64         `json:"inflight"`
	Admitted   int64         `json:"admitted"`
	Delivered  int64         `json:"delivered"`
	Expired    int64         `json:"expired"`
	Rejected   int64         `json:"rejected"`
	Aborted    int64         `json:"aborted"`
	Tombstones int64         `json:"tombstones"`
	Delay      DelaySnapshot `json:"delay"`
}

// Stats snapshots the queue's counters. Racy across fields, monotone
// within each — monitoring semantics.
func (q *Queue[T]) Stats() Stats {
	return Stats{
		Name:       q.name,
		Gen:        q.gen,
		Backend:    q.cfg.Backend.String(),
		Shards:     q.cfg.Shards,
		Closed:     q.wq.Closed(),
		Depth:      q.depth.Load(),
		Len:        int64(q.wq.Len()),
		Inflight:   q.inflight.Load(),
		Admitted:   q.admitted.Load(),
		Delivered:  q.delivered.Load(),
		Expired:    q.expired.Load(),
		Rejected:   q.rejected.Load(),
		Aborted:    q.aborted.Load(),
		Tombstones: q.tombstones.Load(),
		Delay:      q.delays.Snapshot(),
	}
}

// Session is a leased per-goroutine identity on a Queue (it wraps a
// facade Handle). Sessions must not be shared between concurrently
// operating goroutines; Release when done.
type Session[T any] struct {
	q *Queue[T]
	h *wfq.Handle[env[T]]
	// rec is the completion record EnqueueWait re-arms, made on first
	// use; nil again after a wait that ended without observing
	// completion.
	rec *Req
}

// Session leases an identity; it fails with tid.ErrExhausted when
// MaxThreads sessions are concurrently held.
func (q *Queue[T]) Session() (*Session[T], error) {
	h, err := q.wq.Handle()
	if err != nil {
		return nil, err
	}
	return &Session[T]{q: q, h: h}, nil
}

// Release returns the leased identity.
func (s *Session[T]) Release() { s.h.Release() }

// Queue reports the session's queue.
func (s *Session[T]) Queue() *Queue[T] { return s.q }

// admitDepth charges one live request against the depth cap. The cap is
// enforced with a CAS loop on the counter so the observed depth NEVER
// exceeds the cap, not even transiently; with no cap it is one
// fetch-and-add. (The CAS loop is lock-free, not wait-free — admission
// under a cap is a policy gate, not part of the queue's progress
// claims; the uncapped hot path keeps its single FAA.)
func (q *Queue[T]) admitDepth() error {
	if q.cfg.MaxDepth <= 0 {
		q.depth.Add(1)
		return nil
	}
	for {
		d := q.depth.Load()
		if d >= int64(q.cfg.MaxDepth) {
			q.rejected.Add(1)
			return fmt.Errorf("enqueue on %q (depth %d/%d): %w", q.name, d, q.cfg.MaxDepth, wfq.ErrAdmission)
		}
		if q.depth.CompareAndSwap(d, d+1) {
			return nil
		}
	}
}

// admitInflight charges one armed request against the inflight cap.
func (q *Queue[T]) admitInflight() error {
	if q.cfg.MaxInflight <= 0 {
		q.inflight.Add(1)
		return nil
	}
	for {
		n := q.inflight.Load()
		if n >= int64(q.cfg.MaxInflight) {
			q.rejected.Add(1)
			return fmt.Errorf("armed enqueue on %q (inflight %d/%d): %w", q.name, n, q.cfg.MaxInflight, wfq.ErrAdmission)
		}
		if q.inflight.CompareAndSwap(n, n+1) {
			return nil
		}
	}
}

// Enqueue admits and publishes one request. deadline <= 0 is the plain
// path: no completion record, no timer state, allocation parity with
// the bare facade; the returned Req is nil. deadline > 0 arms a fresh
// record: it is pushed into the timeout sweep's heap BEFORE the element
// becomes visible (so no visible armed request can be missed by a
// sweep), and the returned Req completes when the request is delivered,
// expires, or is aborted.
//
// Errors: wfq.ErrAdmission (cap exceeded, nothing published),
// wfq.ErrClosed (queue closed/deleted, nothing published),
// tid-exhaustion from the session layer.
func (s *Session[T]) Enqueue(v T, deadline time.Duration) (*Req, error) {
	if deadline <= 0 {
		return nil, s.publish(nil, v, 0)
	}
	r := newReq(s.q.name)
	if err := s.publish(r, v, deadline); err != nil {
		return nil, err
	}
	return r, nil
}

// EnqueueWait publishes one deadline-armed request and waits until it
// completes: nil when a consumer took delivery, a
// wfq.ErrDeadlineExceeded-wrapped error when the sweep expired it,
// wfq.ErrClosed when the queue was deleted. It re-arms the session's own
// completion record, so a request that completes allocates no record.
// If ctx ends first, EnqueueWait returns ctx.Err() and the request stays
// armed for the consumers and the sweep to resolve; the session then
// arms a fresh record next time, because the abandoned one may still be
// completed. Enqueue's errors are returned as they are.
func (s *Session[T]) EnqueueWait(ctx context.Context, v T, deadline time.Duration) error {
	if deadline <= 0 {
		return fmt.Errorf("enqueue-and-wait on %q requires a positive deadline", s.q.name)
	}
	r := s.rec
	if r == nil {
		r = newReq(s.q.name)
		s.rec = r
	}
	if err := s.publish(r, v, deadline); err != nil {
		if !errors.Is(err, wfq.ErrAdmission) {
			// Admission refuses before arming, but a failed enqueue
			// armed r, and a racing sweep or abort that claimed it may
			// still be about to send its token.
			s.rec = nil
		}
		return err
	}
	select {
	case <-r.done:
		return r.Err()
	case <-ctx.Done():
		s.rec = nil
		return ctx.Err()
	}
}

// publish admits v and enqueues it, armed on r until deadline when r is
// non-nil. The heap push precedes the enqueue; if the enqueue fails,
// the producer aborts the incarnation itself unless a racing sweep or
// abort already claimed it (whose accounting then stands, and whose heap
// entry is already gone).
func (s *Session[T]) publish(r *Req, v T, deadline time.Duration) error {
	q := s.q
	if err := q.admitDepth(); err != nil {
		return err
	}
	e := env[T]{v: v, enq: time.Now().UnixNano()}
	if r != nil {
		if err := q.admitInflight(); err != nil {
			q.depth.Add(-1)
			return err
		}
		dl := e.enq + int64(deadline)
		e.r, e.seq = r, r.arm(dl)
		q.dl.push(dlEntry{deadline: dl, seq: e.seq, r: r})
	}
	if err := s.h.TryEnqueue(e); err != nil {
		if r == nil {
			q.depth.Add(-1)
		} else if r.claim(e.seq, stAborted) {
			// Nobody waits on a record whose enqueue failed: the error
			// is returned instead, so no token is sent.
			q.aborted.Add(1)
			q.inflight.Add(-1)
			q.depth.Add(-1)
		}
		return err
	}
	q.admitted.Add(1)
	return nil
}

// accept resolves one dequeued envelope: delivers plain envelopes
// directly, claims armed ones with the conservation CAS, and discards
// tombstones of swept requests. ok=false means "this envelope carried
// nothing — keep dequeuing".
func (q *Queue[T]) accept(e env[T]) (T, bool) {
	now := time.Now().UnixNano()
	if e.r == nil {
		q.depth.Add(-1)
		q.delivered.Add(1)
		q.delays.Observe(now - e.enq)
		return e.v, true
	}
	if e.r.claim(e.seq, stDelivered) {
		q.depth.Add(-1)
		q.inflight.Add(-1)
		q.delivered.Add(1)
		q.delays.Observe(now - e.enq)
		e.r.finish()
		return e.v, true
	}
	// The sweep (or Delete) won the request: the element is a
	// tombstone. Its accounting happened at the winning CAS; here we
	// only count the physical discard.
	q.tombstones.Add(1)
	var zero T
	return zero, false
}

// TryDequeue removes and returns the oldest live request without
// blocking; ok=false means the queue was observed empty (swept
// tombstones are discarded, not returned).
func (s *Session[T]) TryDequeue() (T, bool) {
	for {
		e, ok := s.h.Dequeue()
		if !ok {
			var zero T
			return zero, false
		}
		if v, ok := s.q.accept(e); ok {
			return v, true
		}
	}
}

// DequeueCtx removes and returns the oldest live request, blocking
// while the queue is empty. Errors follow the facade contract:
// wfq.ErrDeadlineExceeded / context.Canceled for the context,
// wfq.ErrClosed once the queue is closed (or deleted) and drained,
// wfq.ErrReleased for a released session.
func (s *Session[T]) DequeueCtx(ctx context.Context) (T, error) {
	for {
		e, err := s.h.DequeueCtx(ctx)
		if err != nil {
			var zero T
			return zero, err
		}
		if v, ok := s.q.accept(e); ok {
			return v, nil
		}
	}
}

// sweep completes every armed request whose deadline is at or before
// now: the TimeoutReqs moment. It runs off the hot path (a Tick
// caller's goroutine), holds only the deadline-heap mutex, and per
// expired request performs one conservation CAS — on success the
// request's producer observes a wfq.ErrDeadlineExceeded-wrapped error
// and the element becomes a tombstone for some future dequeue to
// discard. Every expiry is counted (in the queue's stats and in tally,
// when non-nil) before its producer is woken, so a producer that saw
// its deadline error also sees the count. Heap entries whose request
// already completed are collected lazily on their way past the top.
func (q *Queue[T]) sweep(now int64, tally *atomic.Int64) (expired int) {
	q.dl.mu.Lock()
	defer q.dl.mu.Unlock()
	for len(q.dl.h) > 0 {
		top := q.dl.h[0]
		if !top.pending() {
			q.dl.popLocked()
			continue
		}
		if top.deadline > now {
			return expired
		}
		q.dl.popLocked()
		if top.r.claim(top.seq, stExpired) {
			q.expired.Add(1)
			q.inflight.Add(-1)
			q.depth.Add(-1)
			if tally != nil {
				tally.Add(1)
			}
			expired++
			top.r.finish()
		}
	}
	return expired
}

// Sweep runs one timeout sweep against the given wall-clock time and
// reports how many requests it expired. Registry.Tick calls it for
// every registered queue; tests and embedders may drive it directly.
func (q *Queue[T]) Sweep(now time.Time) int { return q.sweep(now.UnixNano(), nil) }

// ArmedPending reports the deadline heap's current size (armed requests
// plus lazily-collectable completed entries); diagnostics only.
func (q *Queue[T]) ArmedPending() int { return q.dl.size() }

// close closes the underlying queue and, when abort is set (Delete),
// fails every still-pending armed request with wfq.ErrClosed so no
// producer is left waiting on a queue that will never be swept again.
// Consumers racing the abort may still legitimately deliver some of
// these requests — the conservation CAS arbitrates, as always.
func (q *Queue[T]) close(abort bool) error {
	err := q.wq.Close()
	if !abort {
		return err
	}
	q.dl.mu.Lock()
	pend := q.dl.h
	q.dl.h = nil
	q.dl.mu.Unlock()
	for _, e := range pend {
		if e.r.claim(e.seq, stAborted) {
			q.aborted.Add(1)
			q.inflight.Add(-1)
			q.depth.Add(-1)
			e.r.finish()
		}
	}
	return err
}

// Close closes the queue in place (it stays registered): subsequent
// enqueues fail with wfq.ErrClosed, already-admitted requests remain
// dequeuable, blocked consumers drain and then observe wfq.ErrClosed,
// and the timeout sweep keeps running for armed requests still queued.
func (q *Queue[T]) Close() error { return q.close(false) }
