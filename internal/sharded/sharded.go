// Package sharded implements a wait-free sharded frontend over N
// independent Kogan–Petrank queue shards — the scaling layer past the
// single queue's state-array helping ceiling.
//
// # Dispatch
//
// Two global fetch-and-add ticket counters drive a round-robin
// dispatcher: the enqueuer holding ticket t appends to shard t mod N,
// and the dequeuer holding ticket u pops shard u mod N. Dispatch is one
// FAA — wait-free with no retry loop of any kind — and every shard
// operation is the underlying queue's own wait-free Enqueue/Dequeue, so
// the composition is wait-free end to end. A dequeuer never rescans
// other shards: it probes exactly the shard its ticket names, and
// reports empty (consuming the ticket) when that shard is empty.
//
// # What is and is not guaranteed
//
// Elements enqueued with tickets of the same residue class (t ≡ u mod N)
// are dequeued in FIFO order — per-shard FIFO. Across shards there is no
// ordering, and a Dequeue may report empty while elements sit in other
// shards; N consecutive empty results while no producer is active prove
// the whole queue empty, because consecutive tickets visit every
// residue. The structure is linearizable as a composition of N
// independent FIFO queues plus a wait-free dispatcher (a bag of FIFOs
// keyed by ticket order) — not as a single FIFO. See ALGORITHM.md,
// "Sharding: the ticket dispatcher".
//
// # Lifecycle
//
// The frontend has no close or blocking API of its own: package wfq
// wraps it, like every engine, in the one lifecycle layer. What stays
// here is what only the dispatcher can know — the gate the facade
// drives (Gate) and the post-close drain mask its dequeues feed
// (Drained), which proves every shard empty once the enqueue side has
// quiesced.
package sharded

import (
	"fmt"
	"sync/atomic"

	"wfq/internal/core"
	"wfq/internal/waiter"
	"wfq/internal/yield"
)

// Shard is the per-shard queue contract. Every engine (*core.Queue,
// *core.HPQueue, *ring.Queue) satisfies it.
type Shard[T any] interface {
	Enqueue(tid int, v T)
	Dequeue(tid int) (v T, ok bool)
	EnqueueBatch(tid int, vs []T)
	Len() int
}

// pad separates the dispatcher's hot words; same two-cache-line unit as
// internal/core (adjacent-cacheline prefetcher pairs 64-byte lines).
const sepBytes = 128

// Queue is the sharded frontend. Create one with New; all methods are
// safe for concurrent use by up to NumThreads() threads with distinct
// tids.
type Queue[T any] struct {
	// enqT and deqT are the dispatch ticket counters. They are the only
	// shared-write words of the frontend itself, padded apart so
	// enqueuers and dequeuers do not false-share.
	enqT atomic.Uint64
	_    [sepBytes - 8]byte
	deqT atomic.Uint64
	_    [sepBytes - 8]byte
	// emptyClaims counts dequeue tickets burned on an empty shard — the
	// dispatcher's "fallback" statistic, read via DispatchStats. Written
	// only on the empty path, so it stays off the successful hot paths.
	emptyClaims atomic.Int64
	_           [sepBytes - 8]byte

	shards   []Shard[T]
	nthreads int

	// gate is the waiter set + close state the facade drives: one for
	// the WHOLE frontend, not per shard — dequeue tickets roam every
	// residue, so a per-shard waiter set could strand a consumer on a
	// shard no element will reach. See internal/waiter.
	gate *waiter.Gate
	// drainMissed/drainLeft are the shared post-close drain mask: once
	// the gate has quiesced (no tracked enqueue can land anymore), any
	// dequeuer's empty observation of shard s is final — shard
	// emptiness is then monotone — so each first miss per shard is
	// recorded here, by whichever consumer makes it. drainLeft == 0
	// proves every shard was seen empty after quiescence: the queue is
	// drained. A per-consumer consecutive-miss count cannot serve: two
	// drainers alternating tickets each only ever visit half the
	// residues.
	drainMissed []atomic.Bool
	drainLeft   atomic.Int32
}

// New builds a frontend over caller-constructed shards — uniform or
// mixed flavours (e.g. hazard-pointer shards, or different variants per
// shard). Every shard must accept tids in [0, nthreads).
func New[T any](nthreads int, shards []Shard[T]) *Queue[T] {
	if len(shards) == 0 {
		panic("sharded: need at least one shard")
	}
	if nthreads <= 0 {
		panic("sharded: nthreads must be positive")
	}
	q := &Queue[T]{
		shards:      shards,
		nthreads:    nthreads,
		gate:        waiter.NewGate(nthreads),
		drainMissed: make([]atomic.Bool, len(shards)),
	}
	q.drainLeft.Store(int32(len(shards)))
	return q
}

// NumThreads reports the frontend's concurrency bound.
func (q *Queue[T]) NumThreads() int { return q.nthreads }

// Shards reports the shard count.
func (q *Queue[T]) Shards() int { return len(q.shards) }

// Shard exposes shard i, for tests and metrics readers.
func (q *Queue[T]) Shard(i int) Shard[T] { return q.shards[i] }

// Name implements the harness's Named interface.
func (q *Queue[T]) Name() string { return fmt.Sprintf("sharded(%d)", len(q.shards)) }

// Enqueue inserts v on behalf of thread tid, dispatched by the next
// enqueue ticket.
func (q *Queue[T]) Enqueue(tid int, v T) { q.EnqueueTicket(tid, v) }

// EnqueueTicket is Enqueue returning the dispatch ticket it consumed
// (ticket mod Shards() is the shard the element landed in). The ticket
// is the frontend's observable dispatch decision; the lincheck tests
// partition histories with it.
func (q *Queue[T]) EnqueueTicket(tid int, v T) uint64 {
	t := q.enqT.Add(1) - 1
	shard := t % uint64(len(q.shards))
	yield.At(yield.SHEnqTicket, tid, int(shard))
	q.shards[shard].Enqueue(tid, v)
	return t
}

// Dequeue pops the shard named by the next dequeue ticket on behalf of
// thread tid. ok=false means that shard was empty at the pop's
// linearization point; other shards may still hold elements (see the
// package documentation for the drain rule).
func (q *Queue[T]) Dequeue(tid int) (v T, ok bool) {
	v, ok, _ = q.DequeueTicket(tid)
	return v, ok
}

// DequeueTicket is Dequeue returning the dispatch ticket it consumed.
func (q *Queue[T]) DequeueTicket(tid int) (v T, ok bool, ticket uint64) {
	// The quiescence license is read BEFORE the probe: a miss may only
	// mark the drain mask if no tracked enqueue could land after the
	// license was granted — a miss observed earlier could be
	// invalidated by a late in-flight enqueue. (One atomic load; the
	// mask write itself happens only on post-close misses.)
	quiesced := q.gate.Quiesced()
	t := q.deqT.Add(1) - 1
	shard := t % uint64(len(q.shards))
	yield.At(yield.SHDeqTicket, tid, int(shard))
	v, ok = q.shards[shard].Dequeue(tid)
	if !ok {
		q.emptyClaims.Add(1)
		if quiesced {
			q.markDrained(int(shard))
		}
	}
	return v, ok, t
}

// EnqueueBatch inserts vs with one ticket fetch-and-add for the whole
// batch; see EnqueueBatchTicket.
func (q *Queue[T]) EnqueueBatch(tid int, vs []T) { q.EnqueueBatchTicket(tid, vs) }

// EnqueueBatchTicket inserts vs with one ticket fetch-and-add for the
// whole batch: the k elements take consecutive tickets t..t+k-1, so
// they fan out round-robin across the shards exactly as k single
// enqueues would, at one shared-counter RMW instead of k. A shard's
// whole ticket run (every ⌈k/N⌉-th element, gathered in ticket order)
// is then appended as ONE shard batch (core.Queue.EnqueueBatch: one
// linearizing CAS per shard instead of one per element), so the
// per-shard FIFO order is exactly that of k single enqueues. It returns
// the first ticket of the batch (meaningless when vs is empty).
func (q *Queue[T]) EnqueueBatchTicket(tid int, vs []T) uint64 {
	k := uint64(len(vs))
	if k == 0 {
		return 0
	}
	nsh := uint64(len(q.shards))
	t := q.enqT.Add(k) - k
	if k == 1 || nsh == 1 {
		// Degenerate fan-out: the whole batch is one shard's run.
		shard := t % nsh
		// This loop exists only to emit one dispatch point per element
		// (chaos/choreography hooks see batches as k tickets); without
		// a hook it would be k wasted atomic loads on the hot path,
		// hence the Enabled guard.
		if yield.Enabled() {
			for range vs {
				yield.At(yield.SHEnqTicket, tid, int(shard))
			}
		}
		q.shards[shard].EnqueueBatch(tid, vs)
		return t
	}
	// General fan-out: stride-gather each shard's ticket run. Runs are
	// emitted shard-major rather than ticket-major; that reorders only
	// ACROSS shards, where no ordering is promised — within a shard the
	// gather preserves ascending tickets.
	var sub []T
	strides := nsh
	if k < nsh {
		strides = k
	}
	for off := uint64(0); off < strides; off++ {
		shard := (t + off) % nsh
		sub = sub[:0]
		for i := off; i < k; i += nsh {
			sub = append(sub, vs[i])
		}
		if yield.Enabled() { // see the degenerate branch: hook-only loop
			for range sub {
				yield.At(yield.SHEnqTicket, tid, int(shard))
			}
		}
		q.shards[shard].EnqueueBatch(tid, sub)
	}
	return t
}

// DequeueBatch claims len(dst) dequeue tickets with one fetch-and-add
// and pops each ticket's shard, compacting the successful results into
// dst[:n] in ticket order. Tickets whose shard was empty are consumed
// (burned) like single empty dequeues; n < len(dst) reports how many
// probes found elements. n == 0 with an idle producer side means every
// shard in the probed window was empty.
func (q *Queue[T]) DequeueBatch(tid int, dst []T) (n int) {
	k := uint64(len(dst))
	if k == 0 {
		return 0
	}
	quiesced := q.gate.Quiesced() // see DequeueTicket: license precedes probes
	t := q.deqT.Add(k) - k
	for i := uint64(0); i < k; i++ {
		shard := (t + i) % uint64(len(q.shards))
		yield.At(yield.SHDeqTicket, tid, int(shard))
		if v, ok := q.shards[shard].Dequeue(tid); ok {
			dst[n] = v
			n++
		} else {
			q.emptyClaims.Add(1)
			if quiesced {
				q.markDrained(int(shard))
			}
		}
	}
	return n
}

// Gate exposes the frontend's waiter set and close state, so the facade
// (package wfq) drives its blocking layer against the same gate whose
// quiescence licenses the drain mask.
func (q *Queue[T]) Gate() *waiter.Gate { return q.gate }

// Drained reports whether, after Close quiesced the enqueue side, every
// shard has been observed empty at least once. Implements
// waiter.Source; meaningful only post-quiescence (false before).
func (q *Queue[T]) Drained() bool { return q.drainLeft.Load() == 0 }

// markDrained records a post-quiescence empty observation of shard s.
// Shard emptiness is monotone once no enqueue can land, so the first
// miss per shard decides it forever.
func (q *Queue[T]) markDrained(s int) {
	if !q.drainMissed[s].Swap(true) {
		q.drainLeft.Add(-1)
	}
}

// Len reports a racy snapshot of the total element count across shards.
// O(n); monitoring and tests only.
func (q *Queue[T]) Len() int {
	n := 0
	for _, s := range q.shards {
		n += s.Len()
	}
	return n
}

// ShardDepths reports a racy snapshot of each shard's element count —
// the per-shard depth gauge. A persistently skewed profile means the
// producer and consumer ticket streams have drifted (e.g. bursty batch
// sizes coprime with the shard count is fine; a stalled consumer is not).
func (q *Queue[T]) ShardDepths() []int {
	out := make([]int, len(q.shards))
	for i, s := range q.shards {
		out[i] = s.Len()
	}
	return out
}

// DispatchStats is a racy snapshot of the dispatcher's counters.
type DispatchStats struct {
	// EnqTickets and DeqTickets are the tickets issued so far.
	EnqTickets, DeqTickets uint64
	// EmptyClaims counts dequeue tickets burned on an empty shard.
	EmptyClaims int64
}

// DispatchStats reads the dispatcher counters.
func (q *Queue[T]) DispatchStats() DispatchStats {
	return DispatchStats{
		EnqTickets:  q.enqT.Load(),
		DeqTickets:  q.deqT.Load(),
		EmptyClaims: q.emptyClaims.Load(),
	}
}

// MaxObservedPhase reports the largest phase currently published in any
// shard's state array (the chaos watchdog's §3.3 wrap guard; see
// core.Queue.MaxObservedPhase). Shards that do not expose phases
// contribute zero.
func (q *Queue[T]) MaxObservedPhase() int64 {
	var m int64
	for _, s := range q.shards {
		if p, ok := s.(interface{ MaxObservedPhase() int64 }); ok {
			if v := p.MaxObservedPhase(); v > m {
				m = v
			}
		}
	}
	return m
}

// Metrics collects the per-shard core metrics (non-nil entries only when
// the shards were built with core.WithMetrics); index matches shard
// index. Shards that are not core GC queues yield nil.
func (q *Queue[T]) Metrics() []*core.Metrics {
	out := make([]*core.Metrics, len(q.shards))
	for i, s := range q.shards {
		if cq, ok := s.(*core.Queue[T]); ok {
			out[i] = cq.Metrics()
		}
	}
	return out
}
