package core

import "wfq/internal/yield"

// Batch operations: chained-node enqueue and multi-claim dequeue.
//
// EnqueueBatch pre-links its k values into a private node chain and
// appends the whole chain with ONE linearizing CAS on last.next — the
// same Line 74 CAS a single enqueue uses — so the per-element cost of
// the synchronization collapses from (descriptor publish + helping pass
// + append CAS + tail CAS) to 1/k of each. The elements are guaranteed
// to occupy k consecutive FIFO positions, something no sequence of k
// single enqueues can promise under concurrency.
//
// The helper obligations generalize as follows (see ALGORITHM.md, "Batch
// enqueue: chained nodes"):
//
//   - Fast chains (appended by the bounded lock-free path) carry
//     enqTid = noTID on every node. Helpers already advance tail past a
//     descriptor-less node one step at a time; a chain merely gives them
//     k such steps. The appender itself walks its chain and jumps tail
//     to the chain's last node with one CAS when it can (the walk is
//     ABA-free because GC nodes are never recycled).
//   - Slow chains (appended by the helping protocol) set enqTid on
//     every node and publish one descriptor for the head that carries
//     chainTail. helpFinishEnq matches the dangling head against the
//     descriptor exactly as for a single node, and swings tail from the
//     pre-append node directly to chainTail — never into the interior —
//     so the slow path's "tail is within one fix of the last node"
//     reasoning survives with "one fix" meaning "one chain".
//
// DequeueBatch has no dequeue-side analogue of the one-CAS append (each
// removal must claim its own sentinel), so it is a bounded best-effort
// fast-path multi-claim followed by single wait-free dequeues: strictly
// the same linearization points as len(dst) singles, minus repeated
// head/tail re-reads and per-call setup.

// EnqueueBatch inserts vs in order, occupying consecutive positions in
// the FIFO (no other element can interleave among them). It is one
// queue operation: one descriptor publish at most, one linearizing
// append CAS always. Empty vs is a no-op; len(vs) == 1 is Enqueue.
func (q *Queue[T]) EnqueueBatch(tid int, vs []T) {
	q.checkTid(tid)
	switch len(vs) {
	case 0:
		return
	case 1:
		q.Enqueue(tid, vs[0])
		return
	}
	q.met.incOp(tid)
	q.met.incBatchEnq(tid, len(vs))
	if q.fastAllowed(tid) {
		// Fast chain: like a single fast-path node, the chain is
		// thread-local until the append CAS, and descriptor-less after
		// it — every node carries enqTid = noTID.
		head, chainTail := q.linkChain(tid, vs, noTID)
		if q.fastEnqueueChain(tid, head, chainTail) {
			q.met.incFastEnq(tid)
			return
		}
		q.met.incFastExpired(tid)
		// Never published (every append CAS failed): re-own the chain
		// for the slow path so helpers can find the descriptor through
		// the head's enqTid (Line 89). Interior nodes get the tid too —
		// the ISSUE of a helper reading an interior enqTid does not
		// arise (tail never points mid-chain on the slow path), but a
		// uniform chain keeps the invariant "every slow node names its
		// owner" checkable.
		for n := head; n != nil; n = n.next.Load() {
			n.enqTid = int32(tid)
		}
		q.slowEnqueueChain(tid, head, chainTail)
		return
	}
	head, chainTail := q.linkChain(tid, vs, int32(tid))
	q.slowEnqueueChain(tid, head, chainTail)
}

// linkChain allocates and links one node per value, returning the chain's
// head and tail. The chain is private to the caller until published.
func (q *Queue[T]) linkChain(tid int, vs []T, owner int32) (head, tail *node[T]) {
	head = q.allocNode(tid, vs[0], owner)
	tail = head
	for _, v := range vs[1:] {
		n := q.allocNode(tid, v, owner)
		tail.next.Store(n)
		tail = n
	}
	return head, tail
}

// slowEnqueueChain publishes one descriptor for the whole chain and runs
// the ordinary helping protocol; the Line 74 CAS on the head linearizes
// all k elements at once, and helpFinishEnq (the caller's, or any
// helper's) swings tail to chainTail.
func (q *Queue[T]) slowEnqueueChain(tid int, head, chainTail *node[T]) {
	if q.patience > 0 {
		q.slowPending.Add(1)
	}
	ph := q.nextPhase()
	q.state[tid].p.Store(&opDesc[T]{
		phase: ph, pending: true, enqueue: true, node: head, chainTail: chainTail,
	})
	q.help(tid, ph, true)
	q.helpFinishEnq(tid)
	if q.patience > 0 {
		q.slowPending.Add(-1)
	}
	if q.clearOnExit {
		q.clearDesc(tid, ph, true)
	}
}

// fastEnqueueChain is fastEnqueue for a chain: up to patience bounded
// attempts to append head at the tail; on success the appender advances
// tail past the whole chain before returning.
func (q *Queue[T]) fastEnqueueChain(tid int, head, chainTail *node[T]) bool {
	for attempt := 0; attempt < q.patience; attempt++ {
		yield.At(yield.KPFastEnqAttempt, tid, tid)
		last := q.tailRef.Load()
		next := last.next.Load()
		if last != q.tailRef.Load() {
			continue
		}
		if next == nil {
			yield.At(yield.KPFastBeforeAppend, tid, tid)
			if last.next.CompareAndSwap(nil, head) {
				yield.At(yield.KPChainAfterAppend, tid, tid)
				q.advanceTailPastChain(tid, last, chainTail)
				return true
			}
			q.met.incAppendFail(tid)
		} else {
			q.helpFinishEnq(tid)
		}
	}
	return false
}

// advanceTailPastChain moves tail from the pre-append node to at least
// chainTail. Helpers may concurrently step tail node-by-node through the
// chain (each node looks like a single fast-path node to them), so the
// appender chases: try the one-jump CAS from its current guess, and on
// failure advance the guess along its own chain. The walk is ABA-free —
// GC nodes are unique for the queue's lifetime — and terminates in at
// most k CASes. Postcondition: tail has passed chainTail, by induction:
// a failed CAS on cur means tail already advanced beyond cur (tail only
// moves forward, and every transition from a chain node goes to a later
// chain node or past chainTail).
func (q *Queue[T]) advanceTailPastChain(tid int, last, chainTail *node[T]) {
	for cur := last; cur != chainTail; cur = cur.next.Load() {
		yield.At(yield.KPChainBeforeSwing, tid, tid)
		if q.tailRef.CompareAndSwap(cur, chainTail) {
			return
		}
	}
}

// DequeueBatch removes up to len(dst) elements into dst, returning how
// many were obtained. It stops early only when the queue is observed
// empty, so n < len(dst) implies an empty observation (the single-
// dequeue EmptyException, once). Each removal linearizes individually at
// its sentinel claim — a batch dequeue is NOT atomic the way a batch
// enqueue is, it is a cheaper way to run len(dst) dequeues.
func (q *Queue[T]) DequeueBatch(tid int, dst []T) int {
	q.checkTid(tid)
	if len(dst) == 0 {
		return 0
	}
	q.met.incOp(tid)
	n := 0
	sawEmpty := false
	if q.fastAllowed(tid) {
		n, sawEmpty = q.fastDequeueBatch(tid, dst)
	}
	// Wait-free remainder: each single Dequeue is itself bounded, and
	// the loop runs at most len(dst) - n times.
	for !sawEmpty && n < len(dst) {
		v, ok := q.Dequeue(tid)
		if !ok {
			break
		}
		dst[n] = v
		n++
	}
	q.met.incBatchDeq(tid, n)
	return n
}

// fastDequeueBatch claims as many consecutive sentinels as it can on the
// lock-free fast path, bounded by the caller's patience: every iteration
// that fails to claim burns one attempt, so a contended run degrades to
// the slow path instead of spinning. empty=true reports a Michael–Scott
// empty observation (head == tail with no dangling next).
func (q *Queue[T]) fastDequeueBatch(tid int, dst []T) (n int, empty bool) {
	misses := 0
	for n < len(dst) && misses < q.patience {
		yield.At(yield.KPFastDeqAttempt, tid, tid)
		first := q.headRef.Load()
		last := q.tailRef.Load()
		next := first.next.Load()
		if first != q.headRef.Load() {
			misses++
			continue
		}
		if first == last {
			if next == nil {
				return n, true
			}
			// Tail lags behind an in-progress (possibly chained) append.
			q.helpFinishEnq(tid)
			misses++
			continue
		}
		yield.At(yield.KPFastBeforeDeqTidCAS, tid, tid)
		if first.deqTid.CompareAndSwap(noTID, fastTID) {
			yield.At(yield.KPFastAfterDeqTidCAS, tid, tid)
			dst[n] = next.take()
			n++
			q.met.incFastDeq(tid)
			q.helpFinishDeq(tid)
		} else {
			q.met.incDeqClaimFail(tid)
			misses++
			q.helpFinishDeq(tid)
		}
	}
	return n, false
}
