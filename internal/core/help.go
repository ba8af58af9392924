package core

import (
	"wfq/internal/helptree"
	"wfq/internal/yield"
)

// Enqueue inserts v at the tail on behalf of thread tid — the paper's
// enq(), Lines 61–66, preceded by the bounded lock-free fast path when
// the queue runs VariantFast.
func (q *Queue[T]) Enqueue(tid int, v T) {
	q.checkTid(tid)
	q.met.incOp(tid)
	var n *node[T]
	if q.fastAllowed(tid) {
		// Fast path: the node is thread-local until the append CAS, so
		// it carries enqTid = noTID — there is no descriptor for a
		// helper to complete.
		n = q.allocNode(tid, v, noTID)
		if q.fastEnqueue(tid, n) {
			q.met.incFastEnq(tid)
			return
		}
		q.met.incFastExpired(tid)
		// Patience exhausted; the node was never published (every
		// append CAS failed), so it can be re-owned for the slow path:
		// helpers locate the descriptor through enqTid (Line 89).
		n.enqTid = int32(tid)
	} else {
		n = q.allocNode(tid, v, int32(tid))
	}
	if q.patience > 0 {
		q.slowPending.Add(1)
	}
	ph := q.nextPhase()                                                                // Line 62
	q.state[tid].p.Store(&opDesc[T]{phase: ph, pending: true, enqueue: true, node: n}) // Line 63
	if q.tree != nil {
		// The descriptor is published; announce (phase, tid) so helpers
		// can find this op by descent instead of scanning.
		q.tree.Announce(tid, uint64(ph))
	}
	q.help(tid, ph, true) // Line 64
	q.helpFinishEnq(tid)  // Line 65
	if q.tree != nil {
		q.tree.Clear(tid)
	}
	if q.patience > 0 {
		q.slowPending.Add(-1)
	}
	if q.clearOnExit {
		q.clearDesc(tid, ph, true)
	}
}

// Dequeue removes the oldest element on behalf of thread tid — the
// paper's deq(), Lines 98–108, preceded by the bounded lock-free fast
// path when the queue runs VariantFast. ok=false is the EmptyException
// case.
func (q *Queue[T]) Dequeue(tid int) (v T, ok bool) {
	q.checkTid(tid)
	q.met.incOp(tid)
	if q.fastAllowed(tid) {
		if v, ok, done := q.fastDequeue(tid); done {
			q.met.incFastDeq(tid)
			return v, ok
		}
		q.met.incFastExpired(tid)
	}
	if q.patience > 0 {
		q.slowPending.Add(1)
	}
	ph := q.nextPhase()                                                        // Line 99
	q.state[tid].p.Store(&opDesc[T]{phase: ph, pending: true, enqueue: false}) // Line 100
	if q.tree != nil {
		q.tree.Announce(tid, uint64(ph))
	}
	q.help(tid, ph, false) // Line 101
	q.helpFinishDeq(tid)   // Line 102
	if q.tree != nil {
		q.tree.Clear(tid)
	}
	if q.patience > 0 {
		q.slowPending.Add(-1)
	}
	n := q.state[tid].p.Load().node // Line 103
	if n == nil {                   // Lines 104–106: linearized on an empty queue
		if q.clearOnExit {
			q.clearDesc(tid, ph, false)
		}
		return v, false
	}
	v = n.next.Load().take() // Line 107: value of the node after the old sentinel
	if q.clearOnExit {
		q.clearDesc(tid, ph, false)
	}
	return v, true
}

// fastEnqueue runs up to patience Michael–Scott-style append attempts for
// node n. It linearizes at the same CAS as the slow path (Line 74); after
// a success the enqueuer calls helpFinishEnq itself so tail is fixed (or
// a slower helper's fix is tolerated). The paper's Line 73 pending
// re-check hazard does not arise here: n is invisible to every other
// thread until the append CAS, so no helper can re-append it.
func (q *Queue[T]) fastEnqueue(tid int, n *node[T]) bool {
	for attempt := 0; attempt < q.patience; attempt++ {
		yield.At(yield.KPFastEnqAttempt, tid, tid)
		last := q.tailRef.Load()
		next := last.next.Load()
		if last != q.tailRef.Load() {
			continue
		}
		if next == nil {
			yield.At(yield.KPFastBeforeAppend, tid, tid)
			if last.next.CompareAndSwap(nil, n) {
				yield.At(yield.KPFastAfterAppend, tid, tid)
				q.helpFinishEnq(tid)
				return true
			}
			q.met.incAppendFail(tid)
		} else {
			// Tail lags behind a (fast- or slow-path) append; fix it
			// — and complete the owner's descriptor if it has one —
			// exactly as a slow-path helper would.
			q.helpFinishEnq(tid)
		}
	}
	return false
}

// fastDequeue runs up to patience Michael–Scott-style dequeue attempts.
// done=false means patience was exhausted without linearizing; the caller
// falls back to the slow path. A fast dequeue respects the deqTid
// sentinel lock: it linearizes by CASing deqTid from noTID to fastTID —
// the same claim CAS the slow path's Stage 2 uses (Line 135) — so fast
// and slow dequeues serialize on the sentinel and can never take the same
// element twice.
func (q *Queue[T]) fastDequeue(tid int) (v T, ok, done bool) {
	for attempt := 0; attempt < q.patience; attempt++ {
		yield.At(yield.KPFastDeqAttempt, tid, tid)
		first := q.headRef.Load()
		last := q.tailRef.Load()
		next := first.next.Load()
		if first != q.headRef.Load() {
			continue
		}
		if first == last {
			if next == nil {
				// Empty: first == head with first.next == nil was
				// observed while head == first held (the re-check
				// above), which is the MS empty linearization.
				return v, false, true
			}
			// Tail lags behind an in-progress append.
			q.helpFinishEnq(tid)
			continue
		}
		// Non-empty (head != tail implies next != nil, as in MS).
		yield.At(yield.KPFastBeforeDeqTidCAS, tid, tid)
		if first.deqTid.CompareAndSwap(noTID, fastTID) {
			yield.At(yield.KPFastAfterDeqTidCAS, tid, tid)
			v = next.take()
			// Fix head past the claimed sentinel (helpers racing on
			// the same sentinel do the same and tolerate fastTID).
			q.helpFinishDeq(tid)
			return v, true, true
		}
		q.met.incDeqClaimFail(tid)
		// The sentinel is locked by another (fast or slow) dequeue;
		// finish it and retry on the advanced head.
		q.helpFinishDeq(tid)
	}
	return v, false, false
}

// clearDesc installs a fresh non-pending, node-free descriptor (§3.3
// enhancement). The replaced descriptor can never be confused with this
// one by a stale helper CAS because state CASes compare pointers and this
// descriptor is a new allocation.
func (q *Queue[T]) clearDesc(tid int, ph int64, enqueue bool) {
	q.state[tid].p.Store(&opDesc[T]{phase: ph, pending: false, enqueue: enqueue})
}

// help makes the calling thread (caller, operating at phase ph) assist
// pending operations before its own completes.
//
// VariantBase/Opt2 run the paper's help() (Lines 36–47): every state
// entry with a pending operation at phase ≤ ph is helped, which includes
// the caller's own entry. VariantOpt1/Opt12 instead help at most
// helpChunk other entries, advancing a per-thread cyclic cursor (§3.3),
// and then drive the caller's own operation directly. With the helptree
// attached, the cursor probe is followed by an O(log n) descent to the
// oldest announced operation, so helpers converge on the op that has
// waited longest instead of whatever the cursor happens to pass.
func (q *Queue[T]) help(caller int, ph int64, enqueue bool) {
	switch q.variant {
	case VariantBase, VariantOpt2:
		for i := range q.state { // Line 37
			yield.At(yield.KPHelpScan, caller, i)
			q.met.incScan(caller)
			desc := q.state[i].p.Load() // Line 38
			if stillPending(desc, ph) { // Line 39
				if i != caller {
					q.met.incHelp(caller)
				}
				if desc.enqueue {
					q.helpEnq(caller, i, ph) // Line 41
				} else {
					q.helpDeq(caller, i, ph) // Line 43
				}
			}
		}
	default: // VariantOpt1, VariantOpt12
		cur := &q.cursor[caller]
		for k := 0; k < q.helpChunk; k++ {
			var i int
			if q.randomHelp {
				// §3.3 alternative: a random candidate per slot,
				// giving probabilistic wait-freedom.
				i = int(cur.rng.Next() % uint64(q.nthreads))
			} else {
				i = cur.i
				cur.i++
				if cur.i >= q.nthreads {
					cur.i = 0
				}
			}
			if i == caller {
				continue // own operation is driven below
			}
			yield.At(yield.KPHelpScan, caller, i)
			q.met.incScan(caller)
			desc := q.state[i].p.Load()
			if stillPending(desc, ph) {
				q.met.incHelp(caller)
				if desc.enqueue {
					q.helpEnq(caller, i, ph)
				} else {
					q.helpDeq(caller, i, ph)
				}
			}
		}
		if q.tree != nil {
			q.helpOldest(caller, ph)
		}
		// Complete the caller's own operation.
		if enqueue {
			q.helpEnq(caller, caller, ph)
		} else {
			q.helpDeq(caller, caller, ph)
		}
	}
}

// helpOldest descends the helptree to the oldest announced slow-path
// operation and helps it. Everything the descent returns is a hint that
// gets re-validated against the live descriptor: a target that already
// finished (or whose owner has moved on to a newer phase) has a stale
// leaf, which the helper retires with an exact-word CAS — that repair
// is what keeps a crashed owner's dead announcement from shadowing the
// live ones forever. At most two descents run per call, so the step
// cost is O(log n), not a loop.
func (q *Queue[T]) helpOldest(caller int, ph int64) {
	for r := 0; r < 2; r++ {
		tid, w, ok := q.tree.Oldest(caller)
		if !ok {
			continue // stale aggregate repaired inside Oldest; retry once
		}
		if tid == caller {
			return // own op is driven by help()'s caller
		}
		desc := q.state[tid].p.Load()
		if stillPending(desc, ph) {
			q.met.incHelp(caller)
			if desc.enqueue {
				q.helpEnq(caller, tid, ph)
			} else {
				q.helpDeq(caller, tid, ph)
			}
			return
		}
		// Not helpable by us. The announcement is stale if the op it
		// named is gone: the descriptor is non-pending, or the owner is
		// already pending at a newer phase than the leaf advertises.
		if !desc.pending || uint64(desc.phase) > helptree.Prio(w) {
			q.tree.ClearStale(caller, tid, w)
			continue
		}
		// Genuinely pending but younger than us (possible only under
		// priority saturation): leave it to its own helpers.
		return
	}
}

// helpEnq drives the pending enqueue of thread tid until it linearizes —
// the paper's help_enq(), Lines 67–84. caller is the helping thread
// (used only for descriptor caching); ph is the helper's phase.
func (q *Queue[T]) helpEnq(caller, tid int, ph int64) {
	for {
		yield.At(yield.KPEnqRetry, caller, tid)
		if !q.isStillPending(tid, ph) { // Line 68
			return
		}
		last := q.tailRef.Load()      // Line 69
		next := last.next.Load()      // Line 70
		if last != q.tailRef.Load() { // Line 71
			continue
		}
		if next == nil { // Line 72: tail is the real last node; enqueue can be applied
			// Line 73: the pending re-check MUST come after the
			// last/next reads (fresh descriptor load). The paper
			// warns that dropping it "will break the
			// linearizability": a thread that verified pending
			// before reading last could be suspended, resume
			// after the operation completed and tail advanced to
			// the new node N, observe last==N with N.next==nil,
			// and re-append N after itself. Pending-after-the-
			// last-read implies tail has not yet passed the
			// node, which makes that self-append impossible.
			desc := q.state[tid].p.Load()
			if stillPending(desc, ph) { // Line 73
				yield.At(yield.KPBeforeAppend, caller, tid)
				if last.next.CompareAndSwap(nil, desc.node) { // Line 74
					yield.At(yield.KPAfterAppend, caller, tid)
					q.helpFinishEnq(caller) // Line 75
					return                  // Line 76
				}
				q.met.incAppendFail(caller)
			}
		} else { // Line 79: some enqueue is in progress
			q.helpFinishEnq(caller) // Line 80: help it first, then retry
		}
	}
}

// helpFinishEnq completes the enqueue-in-progress, if any: it flips the
// owner's pending flag (step 2) and advances tail (step 3) — the paper's
// help_finish_enq(), Lines 85–97.
func (q *Queue[T]) helpFinishEnq(caller int) {
	last := q.tailRef.Load() // Line 86
	next := last.next.Load() // Line 87
	if next == nil {         // Line 88
		return
	}
	tid := int(next.enqTid) // Line 89: owner of the dangling node
	if tid == noTIDInt {
		// A fast-path append: the node has no descriptor to complete
		// (step 2 does not exist), so the only work is step 3, the
		// tail fix. Skipping this branch would livelock every slow
		// helper behind the dangling node: helpEnq retries through
		// helpFinishEnq until tail advances. next is immutable once
		// read from last.next (write-once), so the CAS is safe even if
		// tail moved meanwhile — it then simply fails.
		if q.tailRef.CompareAndSwap(last, next) {
			q.met.incTailFix(caller)
		}
		return
	}
	if tid < 0 || tid >= q.nthreads {
		// Unreachable for this queue's own nodes; guards against a
		// foreign sentinel if callers misuse multiple queues.
		return
	}
	curDesc := q.state[tid].p.Load()                      // Line 90
	if last == q.tailRef.Load() && curDesc.node == next { // Line 91
		// §3.3 validation enhancement: skip the completion CAS when
		// another helper already flipped the pending flag; the tail
		// fix below must still run.
		if !q.validate || curDesc.pending {
			// Line 92: new descriptor with pending switched off.
			// Reading phase from curDesc (not a fresh load) is
			// equivalent to the paper's code: if the entry changed
			// since Line 90, the CAS below fails and the
			// descriptor is discarded. chainTail is preserved so a
			// later helpFinishEnq can still swing tail past the
			// whole chain if this helper stalls before the tail CAS.
			newDesc := q.newDesc(caller, curDesc.phase, false, true, next, curDesc.chainTail)
			if !q.state[tid].p.CompareAndSwap(curDesc, newDesc) { // Line 93
				q.recycleDesc(caller, newDesc)
				q.met.incDescFail(caller)
			}
		}
		yield.At(yield.KPAfterStateCASEnq, caller, tid)
		yield.At(yield.KPBeforeTailCAS, caller, tid)
		// Line 94, generalized for batch enqueues: when the descriptor
		// carries a chain, tail must jump from the pre-append node to
		// the chain's last node in one CAS — an intermediate target
		// would strand tail mid-chain where no helper could match
		// curDesc.node against the dangling interior node. Pointer
		// equality is ABA-free on this (GC) variant: nodes are never
		// recycled, so curDesc.node == next identifies the chain whose
		// tail curDesc.chainTail is.
		target := next
		if curDesc.chainTail != nil {
			target = curDesc.chainTail
		}
		if q.tailRef.CompareAndSwap(last, target) {
			q.met.incTailFix(caller)
		}
	}
}

// helpDeq drives the pending dequeue of thread tid until it linearizes —
// the paper's help_deq(), Lines 109–140.
func (q *Queue[T]) helpDeq(caller, tid int, ph int64) {
	for {
		yield.At(yield.KPDeqRetry, caller, tid)
		if !q.isStillPending(tid, ph) { // Line 110
			return
		}
		first := q.headRef.Load()      // Line 111
		last := q.tailRef.Load()       // Line 112 (linearization point of deq-empty)
		next := first.next.Load()      // Line 113
		if first != q.headRef.Load() { // Line 114
			continue
		}
		if first == last { // Line 115: queue might be empty
			if next == nil { // Line 116: queue is empty
				curDesc := q.state[tid].p.Load()                           // Line 117
				if last == q.tailRef.Load() && stillPending(curDesc, ph) { // Line 118
					// Lines 119–120: record the empty result
					// in the owner's descriptor.
					yield.At(yield.KPBeforeEmptyCAS, caller, tid)
					newDesc := q.newDesc(caller, curDesc.phase, false, false, nil, nil)
					if !q.state[tid].p.CompareAndSwap(curDesc, newDesc) {
						q.recycleDesc(caller, newDesc)
						q.met.incDescFail(caller)
					}
				}
			} else { // Line 122: some enqueue is in progress
				q.helpFinishEnq(caller) // Line 123: help it first, then retry
			}
		} else { // Line 125: queue is not empty
			curDesc := q.state[tid].p.Load() // Line 126
			node := curDesc.node             // Line 127
			if !stillPending(curDesc, ph) {  // Line 128
				return
			}
			if first == q.headRef.Load() && node != first { // Line 129
				// Stage 1 (Lines 130–131): point the owner's
				// descriptor at the current sentinel, so a
				// helper seeing an empty queue and a helper
				// seeing a non-empty queue cannot race on the
				// owner's result.
				newDesc := q.newDesc(caller, curDesc.phase, true, false, first, nil)
				if !q.state[tid].p.CompareAndSwap(curDesc, newDesc) { // Line 131
					q.recycleDesc(caller, newDesc)
					q.met.incDescFail(caller)
					continue // Line 132
				}
			}
			// Stage 2 (Line 135): lock the sentinel — the
			// linearization point of a successful dequeue.
			yield.At(yield.KPBeforeDeqTidCAS, caller, tid)
			if first.deqTid.CompareAndSwap(noTID, int32(tid)) {
				yield.At(yield.KPAfterDeqTidCAS, caller, tid)
			}
			q.helpFinishDeq(caller) // Line 136
		}
	}
}

// helpFinishDeq completes the dequeue-in-progress owned by the thread
// whose id is written in the sentinel: it flips the owner's pending flag
// (step 2) and advances head (step 3) — the paper's help_finish_deq(),
// Lines 141–153.
func (q *Queue[T]) helpFinishDeq(caller int) {
	first := q.headRef.Load()       // Line 142
	next := first.next.Load()       // Line 143
	tid := int(first.deqTid.Load()) // Line 144
	if tid == noTIDInt {            // Line 145
		return
	}
	if tid == fastTIDInt {
		// The sentinel is locked by a fast-path dequeue: there is no
		// descriptor to complete (the claimant reads its value directly
		// from next), so the only work is step 3, the head fix. next is
		// non-nil whenever deqTid is claimed — the claim CAS runs only
		// after next was observed non-nil, and next is write-once.
		if next != nil && q.headRef.CompareAndSwap(first, next) {
			q.met.incHeadFix(caller)
		}
		return
	}
	if tid < 0 || tid >= q.nthreads {
		return
	}
	curDesc := q.state[tid].p.Load()              // Line 146
	if first == q.headRef.Load() && next != nil { // Line 147
		// §3.3 validation enhancement: skip the Line 149 CAS when
		// the descriptor is already completed.
		if !q.validate || curDesc.pending {
			// Lines 148–149: complete the owner's descriptor,
			// keeping its node reference (the old sentinel,
			// through which the dequeuer reads its return value).
			newDesc := q.newDesc(caller, curDesc.phase, false, false, curDesc.node, nil)
			if !q.state[tid].p.CompareAndSwap(curDesc, newDesc) {
				q.recycleDesc(caller, newDesc)
				q.met.incDescFail(caller)
			}
		}
		yield.At(yield.KPAfterStateCASDeq, caller, tid)
		yield.At(yield.KPBeforeHeadCAS, caller, tid)
		if q.headRef.CompareAndSwap(first, next) { // Line 150
			q.met.incHeadFix(caller)
		}
	}
}

// noTIDInt and fastTIDInt are the sentinel tids as ints for comparisons
// after widening.
const (
	noTIDInt   = int(noTID)
	fastTIDInt = int(fastTID)
)

// Len counts the elements currently in the queue by walking the list from
// head. It is a racy O(n) snapshot intended for tests and examples, not
// for synchronization.
func (q *Queue[T]) Len() int {
	n := 0
	for cur := q.headRef.Load().next.Load(); cur != nil; cur = cur.next.Load() {
		n++
	}
	return n
}
