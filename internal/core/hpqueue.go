package core

import (
	"fmt"
	"sync/atomic"

	"wfq/internal/hazard"
	"wfq/internal/pool"
	"wfq/internal/yield"
)

// HPQueue is the §3.4 adaptation of the wait-free queue for runtimes
// without a garbage collector: dequeued nodes are retired through a
// hazard-pointer domain and recycled into per-thread pools instead of
// being left to the GC.
//
// Two modifications relative to Queue, both prescribed by the paper:
//
//  1. The operation descriptor carries the dequeued VALUE (opDesc.value),
//     copied out of the list by help_finish_deq while the node is still
//     hazard-protected, "to be able to call RetireNode right at the end of
//     help_deq, even though the thread that actually invoked the
//     corresponding dequeue operation might retrieve the value removed
//     from the queue much later".
//  2. Every traversal pointer (head/tail and the node after them) is
//     published in a hazard slot and re-validated before being
//     dereferenced, following Michael's protocol. Pointer-equality tests
//     on possibly-recycled nodes remain safe: a node can only be recycled
//     after head advanced past it, which requires its deqTid claimed, so
//     the CASes that matter (Line 74 on next, Line 135 on deqTid) cannot
//     succeed against a node that left the list (see the package tests
//     for the ABA scenarios exercised).
//
// The helping structure is the base algorithm's (help-everyone scan with
// maxPhase doorway), i.e. this is "base WF + §3.4 memory management".
type HPQueue[T any] struct {
	headRef paddedPtr[T]
	tailRef paddedPtr[T]
	// slowPending counts operations currently published in the state
	// array; the fast path stands down while it is nonzero so a stream
	// of fast operations cannot starve a slow-path fallback (same gate
	// as Queue.slowPending — see that field's comment).
	slowPending atomic.Int32
	_           [sepBytes - 4]byte
	state       []paddedDesc[T]
	nthr        int
	// patience is the fast-path attempt bound (WithFastPath); 0 sends
	// every operation straight to the helping protocol.
	patience int

	dom *hazard.Domain[node[T]]
	// nodes recycles retired nodes per thread; a miss bump-allocates
	// from the thread's block.
	nodes *pool.Pool[node[T]]
}

// paddedPtr isolates the head/tail words on their own cache-line pairs
// (see sepBytes).
type paddedPtr[T any] struct {
	p atomic.Pointer[node[T]]
	_ [sepBytes - 8]byte
}

// hpSlots is K, the hazard slots each thread needs: one for the anchor
// node (head or tail) and one for its successor.
const hpSlots = 2

// NewHP creates a hazard-pointer-backed queue for up to nthreads threads.
// poolCap bounds each thread's free list (<=0 selects the pool default);
// scanThreshold tunes the hazard domain (<=0 selects Michael's 2·K·n).
// Of the Queue options only WithFastPath is honoured (the HP queue's
// helping structure is fixed to the base algorithm's). The node pool's
// miss path bump-allocates from per-thread blocks of nodeBlock nodes
// instead of making individual heap allocations.
func NewHP[T any](nthreads, poolCap, scanThreshold int, opts ...Option) *HPQueue[T] {
	if nthreads <= 0 {
		panic("core: nthreads must be positive")
	}
	cfg := config{block: nodeBlock}
	for _, o := range opts {
		o(&cfg)
	}
	q := &HPQueue[T]{
		state:    make([]paddedDesc[T], nthreads),
		nthr:     nthreads,
		patience: cfg.patience,
	}
	q.nodes = pool.NewWithArena[node[T]](nthreads, poolCap, cfg.block)
	q.dom = hazard.NewDomain[node[T]](nthreads, hpSlots, scanThreshold, func(tid int, n *node[T]) {
		q.nodes.Put(tid, n)
	})
	var zero T
	sentinel := newNode(zero, noTID)
	q.headRef.p.Store(sentinel)
	q.tailRef.p.Store(sentinel)
	for i := range q.state {
		q.state[i].p.Store(&opDesc[T]{phase: -1, pending: false, enqueue: true})
	}
	return q
}

// NumThreads reports the queue's thread capacity.
func (q *HPQueue[T]) NumThreads() int { return q.nthr }

// Name implements the harness's Named interface.
func (q *HPQueue[T]) Name() string {
	if q.patience > 0 {
		return "fast WF+HP"
	}
	return "base WF+HP"
}

// Domain exposes the hazard domain for tests and metrics.
func (q *HPQueue[T]) Domain() *hazard.Domain[node[T]] { return q.dom }

// PoolStats reports the node pool's (reuse hits, allocations, drops).
func (q *HPQueue[T]) PoolStats() (hits, misses, drops int64) { return q.nodes.Stats() }

func (q *HPQueue[T]) checkTid(tid int) {
	if tid < 0 || tid >= q.nthr {
		panic(fmt.Sprintf("core: tid %d out of range [0,%d)", tid, q.nthr))
	}
}

func (q *HPQueue[T]) maxPhase() int64 {
	maxPh := int64(-1)
	for i := range q.state {
		if ph := q.state[i].p.Load().phase; ph > maxPh {
			maxPh = ph
		}
	}
	return maxPh
}

func (q *HPQueue[T]) isStillPending(tid int, ph int64) bool {
	d := q.state[tid].p.Load()
	return d.pending && d.phase <= ph
}

// MaxObservedPhase reports the largest phase currently published in the
// state array (chaos watchdog wrap guard; see Queue.MaxObservedPhase).
func (q *HPQueue[T]) MaxObservedPhase() int64 { return q.maxPhase() }

// fastAllowed is the HP form of Queue.fastAllowed: fast path configured
// and no slow-path operation currently published.
func (q *HPQueue[T]) fastAllowed() bool {
	return q.patience > 0 && q.slowPending.Load() == 0
}

// Enqueue inserts v at the tail on behalf of thread tid.
func (q *HPQueue[T]) Enqueue(tid int, v T) {
	q.checkTid(tid)
	n := q.nodes.Get(tid)
	if q.fastAllowed() {
		// Fast path: the node carries enqTid = noTID (no descriptor
		// for helpers to complete) until a fallback re-owns it.
		n.reset(v, noTID)
		if q.fastEnqueue(tid, n) {
			q.dom.ClearAll(tid)
			return
		}
		// Never published (every append CAS failed): safe to re-own.
		n.enqTid = int32(tid)
	} else {
		n.reset(v, int32(tid))
	}
	if q.patience > 0 {
		q.slowPending.Add(1)
	}
	ph := q.maxPhase() + 1
	q.state[tid].p.Store(&opDesc[T]{phase: ph, pending: true, enqueue: true, node: n})
	q.help(tid, ph)
	q.helpFinishEnq(tid)
	if q.patience > 0 {
		q.slowPending.Add(-1)
	}
	q.dom.ClearAll(tid)
}

// Dequeue removes the oldest element on behalf of thread tid; ok=false
// when the operation linearized on an empty queue.
func (q *HPQueue[T]) Dequeue(tid int) (v T, ok bool) {
	q.checkTid(tid)
	if q.fastAllowed() {
		v, ok, done := q.fastDequeue(tid)
		if done {
			q.dom.ClearAll(tid)
			return v, ok
		}
	}
	if q.patience > 0 {
		q.slowPending.Add(1)
	}
	ph := q.maxPhase() + 1
	q.state[tid].p.Store(&opDesc[T]{phase: ph, pending: true, enqueue: false})
	q.help(tid, ph)
	q.helpFinishDeq(tid)
	if q.patience > 0 {
		q.slowPending.Add(-1)
	}
	d := q.state[tid].p.Load()
	q.dom.ClearAll(tid)
	// §3.4: the result travels in the descriptor itself; d.node may
	// reference an already-recycled sentinel and is never dereferenced.
	return d.value, d.hasValue
}

// fastEnqueue is the HP form of the bounded lock-free fast path. The
// hazard discipline matches helpEnq's: the tail anchor is protected
// before any dereference; n is thread-local until the append CAS.
func (q *HPQueue[T]) fastEnqueue(tid int, n *node[T]) bool {
	for attempt := 0; attempt < q.patience; attempt++ {
		yield.At(yield.KPFastEnqAttempt, tid, tid)
		last := q.dom.Protect(tid, 0, &q.tailRef.p)
		next := last.next.Load()
		if last != q.tailRef.p.Load() {
			continue
		}
		if next == nil {
			yield.At(yield.KPFastBeforeAppend, tid, tid)
			if last.next.CompareAndSwap(nil, n) {
				yield.At(yield.KPFastAfterAppend, tid, tid)
				q.helpFinishEnq(tid)
				return true
			}
		} else {
			q.helpFinishEnq(tid)
		}
	}
	return false
}

// fastDequeue is the HP form of the bounded lock-free dequeue. Claiming
// deqTid can only succeed while first is the live sentinel (head advances
// past a node only after its deqTid is claimed, and deqTid is reset only
// by pool reuse, which the hazard on first excludes), so the fastTID
// claim is ABA-safe even with node recycling.
func (q *HPQueue[T]) fastDequeue(tid int) (v T, ok, done bool) {
	for attempt := 0; attempt < q.patience; attempt++ {
		yield.At(yield.KPFastDeqAttempt, tid, tid)
		first := q.dom.Protect(tid, 0, &q.headRef.p)
		last := q.tailRef.p.Load()
		next := first.next.Load()
		if first != q.headRef.p.Load() {
			continue
		}
		if first == last {
			if next == nil {
				return v, false, true // empty
			}
			q.helpFinishEnq(tid)
			continue
		}
		// Publish next and re-validate before dereferencing it: head
		// still at first means next has not left the list, so it was
		// not retired before our hazard became visible.
		q.dom.Set(tid, 1, next)
		if q.headRef.p.Load() != first {
			continue
		}
		yield.At(yield.KPFastBeforeDeqTidCAS, tid, tid)
		if first.deqTid.CompareAndSwap(noTID, fastTID) {
			yield.At(yield.KPFastAfterDeqTidCAS, tid, tid)
			v = next.value // next is hazard-protected
			q.helpFinishDeq(tid)
			return v, true, true
		}
		q.helpFinishDeq(tid)
	}
	return v, false, false
}

func (q *HPQueue[T]) help(caller int, ph int64) {
	for i := range q.state {
		desc := q.state[i].p.Load()
		if stillPending(desc, ph) {
			if desc.enqueue {
				q.helpEnq(caller, i, ph)
			} else {
				q.helpDeq(caller, i, ph)
			}
		}
	}
}

func (q *HPQueue[T]) helpEnq(caller, tid int, ph int64) {
	for {
		if !q.isStillPending(tid, ph) {
			return
		}
		// Protect the tail anchor before dereferencing it.
		last := q.dom.Protect(caller, 0, &q.tailRef.p)
		next := last.next.Load()
		if last != q.tailRef.p.Load() {
			continue
		}
		if next == nil {
			// The pending re-check must follow the last/next
			// reads (the paper's Line 73 — see Queue.helpEnq):
			// pending after reading last implies tail has not
			// passed the node, ruling out re-appending an
			// already-enqueued (and possibly recycled) node.
			// desc.node itself is owned by tid's pool and was
			// reset before the descriptor was published.
			desc := q.state[tid].p.Load()
			if stillPending(desc, ph) {
				if last.next.CompareAndSwap(nil, desc.node) {
					q.helpFinishEnq(caller)
					return
				}
			}
		} else {
			q.helpFinishEnq(caller)
		}
	}
}

func (q *HPQueue[T]) helpFinishEnq(caller int) {
	last := q.dom.Protect(caller, 0, &q.tailRef.p)
	next := last.next.Load()
	if next == nil {
		return
	}
	// Publish next, then re-validate the anchor: if tail still equals
	// last, then next is the dangling node, still in the list, so it
	// was not retired before our hazard became visible.
	q.dom.Set(caller, 1, next)
	if q.tailRef.p.Load() != last {
		return
	}
	// Step 2 — complete the owner's descriptor when the dangling node is
	// the one it describes. A batch chain publishes one descriptor for
	// its HEAD only; interior chain nodes carry the owner's tid but match
	// no descriptor, and simply skip to the tail fix below — the same
	// treatment a descriptor-less fast-path node gets.
	if tid := int(next.enqTid); tid >= 0 && tid < q.nthr {
		curDesc := q.state[tid].p.Load()
		if last == q.tailRef.p.Load() && curDesc.node == next {
			newDesc := &opDesc[T]{phase: curDesc.phase, pending: false, enqueue: true, node: next}
			q.state[tid].p.CompareAndSwap(curDesc, newDesc)
		}
	}
	// Step 3 — the tail fix, unconditionally one step to the observed
	// dangling node. Unlike the GC variant, the HP variant never jumps
	// tail to a descriptor's chainTail: with node recycling, a stale
	// descriptor whose node pointer happens to equal next (ABA through
	// the pool) could smuggle in a chainTail that already left the list.
	// The step target next carries no such risk — the hazard on last
	// plus the tail == last re-validation prove next is the current
	// dangling node — so chains are passed node by node, each step
	// looking exactly like a single lagging append. The step CAS is
	// sound whether or not a descriptor matched: next is in the list
	// directly after last, and a failed CAS just means tail moved.
	q.tailRef.p.CompareAndSwap(last, next)
}

func (q *HPQueue[T]) helpDeq(caller, tid int, ph int64) {
	for {
		if !q.isStillPending(tid, ph) {
			return
		}
		first := q.dom.Protect(caller, 0, &q.headRef.p)
		last := q.tailRef.p.Load()
		next := first.next.Load() // first is protected; next is only compared, not dereferenced, in this function
		if first != q.headRef.p.Load() {
			continue
		}
		if first == last {
			if next == nil { // queue is empty
				curDesc := q.state[tid].p.Load()
				if last == q.tailRef.p.Load() && stillPending(curDesc, ph) {
					newDesc := &opDesc[T]{phase: curDesc.phase, pending: false, enqueue: false}
					q.state[tid].p.CompareAndSwap(curDesc, newDesc)
				}
			} else {
				q.helpFinishEnq(caller)
			}
		} else {
			curDesc := q.state[tid].p.Load()
			node := curDesc.node
			if !stillPending(curDesc, ph) {
				return
			}
			if first == q.headRef.p.Load() && node != first {
				newDesc := &opDesc[T]{phase: curDesc.phase, pending: true, enqueue: false, node: first}
				if !q.state[tid].p.CompareAndSwap(curDesc, newDesc) {
					continue
				}
			}
			// Claiming deqTid can only succeed while first is the
			// live sentinel: head advances past a node only after
			// its deqTid is claimed, and deqTid is reset only by
			// pool reuse, which our hazard on first excludes.
			first.deqTid.CompareAndSwap(noTID, int32(tid))
			q.helpFinishDeq(caller)
		}
	}
}

func (q *HPQueue[T]) helpFinishDeq(caller int) {
	first := q.dom.Protect(caller, 0, &q.headRef.p)
	next := first.next.Load()
	dtid := int(first.deqTid.Load())
	if dtid == noTIDInt {
		return
	}
	if dtid == fastTIDInt {
		// Sentinel locked by a fast-path dequeue: no descriptor to
		// complete, only the head fix; the winner retires the node.
		// The head CAS does not dereference next, so no hazard on it
		// is needed here.
		if first == q.headRef.p.Load() && next != nil {
			if q.headRef.p.CompareAndSwap(first, next) {
				q.dom.Retire(caller, first)
			}
		}
		return
	}
	if dtid < 0 || dtid >= q.nthr {
		return
	}
	curDesc := q.state[dtid].p.Load()
	if first == q.headRef.p.Load() && next != nil {
		// Publish next and re-validate before reading its value: if
		// head still equals first, next has not been removed from
		// the list, so it was not retired before our hazard became
		// visible.
		q.dom.Set(caller, 1, next)
		if q.headRef.p.Load() != first {
			return
		}
		newDesc := &opDesc[T]{
			phase: curDesc.phase, pending: false, enqueue: false,
			node: curDesc.node, value: next.value, hasValue: true,
		}
		q.state[dtid].p.CompareAndSwap(curDesc, newDesc)
		if q.headRef.p.CompareAndSwap(first, next) {
			// Exactly one thread wins the head CAS per sentinel;
			// the winner retires it (the paper's RetireNode at
			// the end of help_deq).
			q.dom.Retire(caller, first)
		}
	}
}

// Len counts elements by walking the list; racy snapshot for tests only.
// The walk holds no hazards, so it must only be used in quiescent states.
func (q *HPQueue[T]) Len() int {
	n := 0
	for cur := q.headRef.p.Load().next.Load(); cur != nil; cur = cur.next.Load() {
		n++
	}
	return n
}
