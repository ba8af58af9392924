package core

import "wfq/internal/yield"

// Batch operations for the hazard-pointer variant. The enqueue side is
// the same chained-node design as Queue.EnqueueBatch — k pool nodes
// pre-linked off-queue, one linearizing CAS on last.next — but the tail
// management differs: helpers (and the appender's fallback) advance tail
// through a chain one node per step, never by a descriptor-carried jump,
// because under node recycling a stale descriptor's chainTail pointer
// cannot be trusted (see HPQueue.helpFinishEnq). The appender still gets
// its one-jump swing in the common case: immediately after its append
// CAS, tail provably equals the pre-append node unless a helper already
// stepped, so a single CAS to the chain's last node usually lands.

// EnqueueBatch inserts vs in order, occupying consecutive positions in
// the FIFO. One descriptor publish at most, one linearizing append CAS
// always; nodes come from the per-thread pool, whose misses are served
// from the thread's node block.
func (q *HPQueue[T]) EnqueueBatch(tid int, vs []T) {
	q.checkTid(tid)
	switch len(vs) {
	case 0:
		return
	case 1:
		q.Enqueue(tid, vs[0])
		return
	}
	if q.fastAllowed() {
		head, chainTail := q.linkChain(tid, vs, noTID)
		if q.fastEnqueueChain(tid, head, chainTail, len(vs)) {
			q.dom.ClearAll(tid)
			return
		}
		// Never published: re-own the chain for the slow path. Helpers
		// find the descriptor through the HEAD's enqTid; interior nodes
		// carry the tid too but match no descriptor and are passed by
		// the unconditional tail step.
		for n := head; n != nil; n = n.next.Load() {
			n.enqTid = int32(tid)
		}
		q.slowEnqueueChain(tid, head, len(vs))
		q.dom.ClearAll(tid)
		return
	}
	head, _ := q.linkChain(tid, vs, int32(tid))
	q.slowEnqueueChain(tid, head, len(vs))
	q.dom.ClearAll(tid)
}

// linkChain builds a private chain of pool nodes for vs; see
// Queue.linkChain.
func (q *HPQueue[T]) linkChain(tid int, vs []T, owner int32) (head, tail *node[T]) {
	head = q.nodes.Get(tid)
	head.reset(vs[0], owner)
	tail = head
	for _, v := range vs[1:] {
		n := q.nodes.Get(tid)
		n.reset(v, owner)
		tail.next.Store(n)
		tail = n
	}
	return head, tail
}

// slowEnqueueChain publishes one descriptor for the chain head and runs
// the helping protocol. The descriptor does NOT carry chainTail on this
// variant (nothing may act on it — see the file comment); instead the
// owner bounds-steps tail through its chain before returning, so the
// quiescent "at most one dangling node" invariant is restored by op end.
func (q *HPQueue[T]) slowEnqueueChain(tid int, head *node[T], k int) {
	if q.patience > 0 {
		q.slowPending.Add(1)
	}
	ph := q.maxPhase() + 1
	q.state[tid].p.Store(&opDesc[T]{phase: ph, pending: true, enqueue: true, node: head})
	q.help(tid, ph)
	// Tail must pass all k chain nodes. Each helpFinishEnq call either
	// steps tail or observes (via its failed re-validation or CAS) that
	// another thread stepped it during the call; k sequential calls
	// therefore witness at least the k steps the chain needs.
	for i := 0; i < k; i++ {
		q.helpFinishEnq(tid)
	}
	if q.patience > 0 {
		q.slowPending.Add(-1)
	}
}

// fastEnqueueChain is the bounded lock-free chain append. On success the
// appender first tries the one-jump tail swing (sound here, and only
// here: chainTail was read from the appender's own private chain, not
// from a descriptor, and the CAS succeeds only while tail still equals
// the hazard-protected pre-append node) and otherwise falls back to
// bounded stepping.
func (q *HPQueue[T]) fastEnqueueChain(tid int, head, chainTail *node[T], k int) bool {
	for attempt := 0; attempt < q.patience; attempt++ {
		yield.At(yield.KPFastEnqAttempt, tid, tid)
		last := q.dom.Protect(tid, 0, &q.tailRef.p)
		next := last.next.Load()
		if last != q.tailRef.p.Load() {
			continue
		}
		if next == nil {
			yield.At(yield.KPFastBeforeAppend, tid, tid)
			if last.next.CompareAndSwap(nil, head) {
				yield.At(yield.KPChainAfterAppend, tid, tid)
				if !q.tailRef.p.CompareAndSwap(last, chainTail) {
					// A helper already stepped tail into the chain;
					// finish passing it step by step (same witness
					// argument as slowEnqueueChain).
					for i := 0; i < k; i++ {
						q.helpFinishEnq(tid)
					}
				}
				return true
			}
		} else {
			q.helpFinishEnq(tid)
		}
	}
	return false
}

// DequeueBatch removes up to len(dst) elements into dst; see
// Queue.DequeueBatch for the contract (stops early only on an empty
// observation; each removal linearizes individually).
func (q *HPQueue[T]) DequeueBatch(tid int, dst []T) int {
	q.checkTid(tid)
	if len(dst) == 0 {
		return 0
	}
	n := 0
	sawEmpty := false
	if q.fastAllowed() {
		n, sawEmpty = q.fastDequeueBatch(tid, dst)
		q.dom.ClearAll(tid)
	}
	for !sawEmpty && n < len(dst) {
		v, ok := q.Dequeue(tid)
		if !ok {
			break
		}
		dst[n] = v
		n++
	}
	return n
}

// fastDequeueBatch is the bounded lock-free multi-claim with the hazard
// discipline of fastDequeue: the sentinel is protected before its fields
// are read, and next is protected and re-validated before its value is
// copied out.
func (q *HPQueue[T]) fastDequeueBatch(tid int, dst []T) (n int, empty bool) {
	misses := 0
	for n < len(dst) && misses < q.patience {
		yield.At(yield.KPFastDeqAttempt, tid, tid)
		first := q.dom.Protect(tid, 0, &q.headRef.p)
		last := q.tailRef.p.Load()
		next := first.next.Load()
		if first != q.headRef.p.Load() {
			misses++
			continue
		}
		if first == last {
			if next == nil {
				return n, true
			}
			q.helpFinishEnq(tid)
			misses++
			continue
		}
		q.dom.Set(tid, 1, next)
		if q.headRef.p.Load() != first {
			misses++
			continue
		}
		yield.At(yield.KPFastBeforeDeqTidCAS, tid, tid)
		if first.deqTid.CompareAndSwap(noTID, fastTID) {
			yield.At(yield.KPFastAfterDeqTidCAS, tid, tid)
			dst[n] = next.value // next is hazard-protected
			n++
			q.helpFinishDeq(tid)
		} else {
			misses++
			q.helpFinishDeq(tid)
		}
	}
	return n, false
}
