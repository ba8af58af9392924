// Wait-free slow path for the ring backend, in the direction of wCQ
// ("wCQ: A Fast Wait-Free Queue with Bounded Memory Usage", PAPERS.md):
// per-thread helping records with bounded memory bolted onto the SCQ-style
// fast path. See ALGORITHM.md, "Wait-free ring helping".
//
// # The protocol in one paragraph
//
// An operation that exhausts its fast-path patience (too many burns or
// boundary overshoots) publishes a request descriptor in its pre-allocated
// helping record and raises a global slow gate. It then claims slots
// exactly like the fast path, but before touching the claimed slot it
// publishes a TICKET — a versioned word naming the claimed (segment,
// index) — so that from that moment ANY thread can finish the operation
// from public state alone. Threads entering an operation while the gate
// is up make one bounded help attempt on the OLDEST announced request,
// found by an O(log n) helptree descent (helpOldest) rather than a scan
// over all n records; dequeuers that claim a slot a slow enqueuer has
// reserved finish that enqueue inline instead of burning it. Completion is funnelled through a single CAS on
// the record's control word (pending -> done), which is what makes the
// operation happen exactly once no matter how many helpers race.
//
// # Words and their encodings
//
//	ctl  = seq<<3 | state      request descriptor: one state machine
//	                           idle -> enqPending -> doneEnq -> idle
//	                           idle -> deqPending -> doneDeqVal|doneDeqEmpty -> idle
//	                           seq increments (mod 2^45) once per published
//	                           request, so a finalize CAS can only land on
//	                           the request it was read from.
//	slot = (seq<<16|tid)<<3 | reserved   the slot word in its reserved
//	                           form (other states are the bare state): the
//	                           reserve CAS takes the slot from empty straight
//	                           to this word, by the owner or by a helper
//	                           from the owner's tid and the seq of the ctl
//	                           word it validated, so a claimant finding the
//	                           slot reserved reads the record (tid) and the
//	                           request (seq) that reserved it from the same
//	                           word, without any ambient context.
//	tPub = kind<<63|tkt<<20|idx+1  the ticket; 0 means "no ticket".
//
// Both counters wrap: seq at seqBits (45) bits, so the seq in ctl and
// the seq in a reserved slot word compare exactly, and tkt at 43 bits,
// what the ticket word leaves it. A wrapped value could be confused
// with an old one only by a thread that read a word and then slept
// through 2^45 requests (2^43 tickets) of the same record before its
// compare: the owner's requests are strictly sequential, so that is
// days of one thread's back-to-back slow operations while another is
// parked between two adjacent steps. No other copy outlives its
// request: a reserved slot is promoted before its request closes
// (finishEnqSlow), and a ticket is dead before its next one is
// published.
//
// # Why helpers can trust what they read
//
// Ticket reads are seqlock-style: read tPub, read tSeg, re-read tPub and
// require equality. Every tSeg move is preceded by a tPub store of 0 and
// ticket words never repeat, so equal non-zero reads bracket a consistent
// (segment, index) pair. Publish order gives the second leg: the owner
// zeroes tPub before storing a new pending ctl, so a ticket read between
// two equal reads of a pending ctl belongs to that pending request, and
// helpers finalize from exactly that ctl word.
//
// # Why a stale helper can never corrupt a slot
//
// A helper acts on a slot of another thread's segment, so it follows
// hazard-pointer discipline (the paper's §3.4: publish, then
// re-validate). A ticket is LIVE while ctl is pending and tPub non-zero,
// and a live ticket names the life of the segment it was published in:
// the owner claims under enter's validated announcement, publishes the
// ticket after the claim, and kills the ticket (tPub = 0, once its slot
// is burned) or closes the request before its next enter moves the
// announcement, so the life cannot be recycled while the ticket lives.
// But a helper finds the segment through the ticket, not through a
// root, and the retire scan reads one announcement at a time: it may
// read the helper's slot before the helper announces and the owner's
// slot after the ticket died. So liveness alone cannot pin the segment.
// The retirer therefore marks the segment (its life word turns odd)
// before it scans. The helper stores the segment in its own
// announcement slot, then reads the life word, then re-reads ctl and
// tPub; it acts only if the word is even and the ticket unchanged. The
// ticket, live after the life read, names the life that read saw, and
// that life was not yet marked, so its mark and every scan after it
// come after the announcement: no scan of this life misses it, and the
// segment is dropped, not recycled, if it retires while the helper
// works. Within one segment life slot states only move forward. A
// helper that finds the segment retired skips it: every slot of a
// retired segment has a dequeuer claimant, which resolves the ticket's
// slot with the owner. Segments that carried tickets are therefore
// reset and pooled like any other: the steady state allocates nothing,
// helped bursts included.
//
// # What the slow path buys
//
// A frozen thread can stall a peer's ring operation in three ways: the
// burn-and-retry loop (a dequeuer repeatedly burns the enqueuer's
// claims), the segment-boundary install, and the segment recycle race.
// The boundary and recycle windows were already help-complete in PR 6
// (any thread finishes the install/swing; the retire scan refuses unsafe
// recycling). The burn loop was not: it is the window this file closes.
// Once a slow enqueuer's ticket is public, a dequeuer that claims the
// reserved slot FINISHES the enqueue (resolveReserved) rather than
// burning it, and every op entering while the gate is up helps pending
// requests directly — so a request with a published ticket completes
// after a bounded amount of any thread's work. What remains probabilistic
// is only the pre-publish stretch: the patience-bounded fast attempts
// plus the one claim between publish and ticket, each charged to another
// thread's completed linearization (the lock-free argument). ALGORITHM.md
// states the resulting guarantee honestly.
package ring

import (
	"sync/atomic"

	"wfq/internal/yield"
)

// DefaultPatience is the number of failed fast-path attempts (burned
// commits, boundary overshoots) an operation tolerates before publishing
// a helping record, when New was not given an explicit patience. Mirrors
// the fast-path engine's default gate.
const DefaultPatience = 8

// Request states for the ctl word's low bits.
const (
	hsIdle uint64 = iota
	hsEnqPending
	hsDeqPending
	hsDoneEnq
	hsDoneDeqVal
	hsDoneDeqEmpty
	hsMask uint64 = 7
)

func ctlWord(seq, state uint64) uint64 { return seq<<3 | state }
func ctlState(w uint64) uint64         { return w & hsMask }
func ctlSeq(w uint64) uint64           { return w >> 3 }

// Reserved slot word layout: seq above a 16-bit tid above the state
// bits. seqBits is what the 64-bit word leaves for seq, and openRequest
// wraps the record's seq to it (see "Words and their encodings").
const (
	tidBits        = 16
	seqBits        = 64 - tidBits - stateBits
	seqMask uint64 = 1<<seqBits - 1
)

// reservedWord is the slot word that reserves a slot for request seq of
// record tid; reservedBy decodes it.
func reservedWord(tid int, seq uint64) uint64 {
	return (seq<<tidBits|uint64(tid))<<stateBits | slotReserved
}
func reservedBy(w uint64) (tid int, seq uint64) {
	return int(w >> stateBits & (1<<tidBits - 1)), w >> (stateBits + tidBits)
}

// Ticket word layout. idx is stored +1 so the zero word means "none".
const (
	tktKindDeq uint64 = 1 << 63
	tktIdxMask uint64 = 1<<20 - 1
	// maxSegSlots bounds segSize so a slot index always fits the ticket
	// word (and tid fits the reserved slot word's tid field — checked in
	// New).
	maxSegSlots = int(tktIdxMask) - 1
	maxThreads  = 1 << tidBits
)

func packTicket(deq bool, tkt, idx uint64) uint64 {
	w := tkt<<20&^tktKindDeq | (idx + 1) // tkt wraps at 43 bits
	if deq {
		w |= tktKindDeq
	}
	return w
}
func ticketIdx(w uint64) uint64 { return w&tktIdxMask - 1 }
func ticketIsDeq(w uint64) bool { return w&tktKindDeq != 0 }

// helpRec is one thread's pre-allocated helping record. ctl/tPub/tSeg
// are the public protocol words; seq, tkt, phase, tid, and announced
// are owner-private (the owner is the only writer of the public words,
// so it needs no atomics to remember where it is). phase is the
// request's global helptree priority (assigned at openRequest);
// announced tracks whether the owner's leaf currently advertises this
// request. Padded: records are read by helpers but written on every
// slow attempt.
type helpRec[T any] struct {
	ctl       atomic.Uint64
	tPub      atomic.Uint64
	tSeg      atomic.Pointer[segment[T]]
	seq       uint64
	tkt       uint64
	phase     uint64
	tid       int32
	announced bool
	_         [sepBytes - 53]byte
}

// publishTicket points the record's ticket at the owner's freshly
// claimed slot, under the owner's announcement of s. The tPub
// zero-store before the tSeg move is the seqlock write barrier helpers
// rely on.
func (rec *helpRec[T]) publishTicket(s *segment[T], deq bool, idx uint64) {
	rec.tPub.Store(0)
	rec.tSeg.Store(s)
	rec.tkt++
	rec.tPub.Store(packTicket(deq, rec.tkt, idx))
}

// openRequest publishes a new request descriptor and raises the slow
// gate. The tPub invalidation precedes the pending ctl store so that a
// helper reading the new pending state can only observe tickets of THIS
// request (or none) — the publish-order invariant.
func (q *Queue[T]) openRequest(tid int, state uint64) (rec *helpRec[T], seq uint64) {
	rec = &q.recs[tid]
	rec.seq = (rec.seq + 1) & seqMask
	seq = rec.seq
	// The request's helptree priority: globally monotone, so "oldest
	// announced" means "longest waiting", and per-thread strictly
	// increasing, so leaf words never recur (ClearStale soundness).
	rec.phase = q.helpPhase.Add(1)
	rec.tPub.Store(0)
	rec.ctl.Store(ctlWord(seq, state))
	q.slow.Add(1)
	yield.At(yield.RGHelpPublish, tid, tid)
	return rec, seq
}

// announceHelp publishes the owner's pending request in its helptree
// leaf. Called only after the request's ticket is public — an announced
// request is always helpable from public state (the tree never points
// helpers at the unhelpable pre-ticket stretch; the cursor backstop in
// helpOldest covers the announce gap itself).
func (q *Queue[T]) announceHelp(rec *helpRec[T]) {
	if q.tree != nil && !rec.announced {
		rec.announced = true
		q.tree.Announce(int(rec.tid), rec.phase)
	}
}

// clearHelp withdraws the owner's announcement. Called when the current
// attempt's ticket goes dead without deciding the request (so helpers
// stop converging on a slot that can no longer help them help) and at
// closeRequest.
func (q *Queue[T]) clearHelp(rec *helpRec[T]) {
	if q.tree != nil && rec.announced {
		rec.announced = false
		q.tree.Clear(int(rec.tid))
	}
}

// closeRequest retires a completed request: record back to idle, gate
// down. Callers must have made the request's slot effects durable first
// (promote/consume) — once the record leaves seq, claimants can no
// longer attribute the slot to this request.
func (q *Queue[T]) closeRequest(rec *helpRec[T], seq uint64) {
	q.clearHelp(rec)
	rec.ctl.Store(ctlWord(seq, hsIdle))
	q.slow.Add(-1)
}

// enqueueSlow completes an enqueue wait-freely once any claimed slot's
// ticket is published: from that point the reserve/finalize/promote
// steps can all be executed by helpers. Called by Enqueue/EnqueueBatch
// after the fast path ran out of patience.
func (q *Queue[T]) enqueueSlow(tid int, v T) {
	q.slowEnqs.Add(1)
	rec, seq := q.openRequest(tid, hsEnqPending)
	// Every attempt starts with the request pending and no live ticket,
	// so no helper can have decided it between attempts.
	for {
		yield.At(yield.RGRetry, tid, tid)
		s := q.enter(tid, &q.tail)
		t := s.enqIdx.Add(1) - 1
		if t >= q.segSize {
			q.advanceTail(tid, s)
			continue
		}
		yield.At(yield.RGHelpClaim, tid, tid)
		sl := &s.slots[t]
		sl.val = v
		rec.publishTicket(s, false, t)
		q.announceHelp(rec)
		yield.At(yield.RGHelpTicket, tid, tid)
		rw := reservedWord(tid, seq)
		if !sl.word.CompareAndSwap(slotEmpty, rw) && sl.word.Load() == slotUnsafe {
			// Burned before anyone reserved: the attempt never happened,
			// and no helper can decide the request through it. Kill the
			// ticket before enter moves our announcement off s.
			q.enqRetries.Add(1)
			rec.tPub.Store(0)
			q.clearHelp(rec)
			continue
		}
		// Reserved (by us or a helper) or already promoted/consumed by
		// helpers: finalize, then make the slot durable before idling.
		yield.At(yield.RGHelpFinalize, tid, tid)
		rec.ctl.CompareAndSwap(ctlWord(seq, hsEnqPending), ctlWord(seq, hsDoneEnq))
		q.finishEnqSlow(tid, rec, sl, rw, seq)
		return
	}
}

// finishEnqSlow promotes the finalized request's slot from its reserved
// word rw to committed (a no-op if a helper or the slot's claimant
// already did) and retires the record. The promote MUST precede
// closeRequest: a claimant that finds a reserved slot whose record has
// moved past seq could no longer prove the request completed through
// it.
func (q *Queue[T]) finishEnqSlow(tid int, rec *helpRec[T], sl *slot[T], rw, seq uint64) {
	yield.At(yield.RGHelpPromote, tid, tid)
	sl.word.CompareAndSwap(rw, slotCommitted)
	q.closeRequest(rec, seq)
}

// dequeueSlow completes a dequeue with helpable claims: each claimed
// slot's ticket is published before the slot is resolved, so helpers can
// finalize a committed value on the owner's behalf. Empty results stay
// owner-only (they need the burn + boundary evidence the owner gathers).
func (q *Queue[T]) dequeueSlow(tid int) (v T, ok bool) {
	q.slowDeqs.Add(1)
	rec, seq := q.openRequest(tid, hsDeqPending)
	for {
		yield.At(yield.RGRetry, tid, tid)
		s := q.enter(tid, &q.head)
		d := s.deqIdx.Load()
		if d >= q.segSize {
			if !q.advanceHead(tid, s) {
				return q.finishDeqEmpty(tid, rec, seq)
			}
			continue
		}
		e := s.enqIdx.Load()
		if d >= e {
			if s.next.Load() == nil {
				return q.finishDeqEmpty(tid, rec, seq)
			}
			continue
		}
		h := s.deqIdx.Add(1) - 1
		if h >= q.segSize {
			continue
		}
		yield.At(yield.RGHelpClaim, tid, tid)
		sl := &s.slots[h]
		rec.publishTicket(s, true, h)
		q.announceHelp(rec)
		yield.At(yield.RGHelpTicket, tid, tid)
	resolve:
		for {
			w := sl.word.Load()
			switch w & slotMask {
			case slotCommitted:
				yield.At(yield.RGHelpFinalize, tid, tid)
				rec.ctl.CompareAndSwap(ctlWord(seq, hsDeqPending), ctlWord(seq, hsDoneDeqVal))
				// Win or lose, doneDeqVal was reached through THIS ticket
				// (the only one the request ever had live), so the value
				// at the ticket slot is this request's result.
				return q.finishDeqVal(tid, rec, seq)
			case slotReserved:
				q.resolveReserved(tid, sl, w)
			case slotEmpty:
				yield.At(yield.RGDeqClaim, tid, tid)
				if sl.word.CompareAndSwap(slotEmpty, slotUnsafe) {
					q.deqBurns.Add(1)
					if s.enqIdx.Load() <= h+1 && s.next.Load() == nil {
						return q.finishDeqEmpty(tid, rec, seq)
					}
					break resolve // not provably empty: re-claim
				}
			default: // slotUnsafe: our burn; re-claim
				break resolve
			}
		}
		// Only break resolve reaches here, with this attempt's slot
		// terminal. Consumed means a helper finalized the request through
		// this ticket. Unsafe is our burn, which no helper can finalize
		// through: kill the ticket before enter moves our announcement
		// off s, and withdraw the tree announcement until the next claim
		// re-publishes.
		if rec.ctl.Load() == ctlWord(seq, hsDoneDeqVal) {
			return q.finishDeqVal(tid, rec, seq)
		}
		rec.tPub.Store(0)
		q.clearHelp(rec)
	}
}

// finishDeqVal reads the result from the current ticket's slot, makes
// the consumption durable, and retires the record. The consumed store is
// idempotent against the finalizing helper's.
func (q *Queue[T]) finishDeqVal(tid int, rec *helpRec[T], seq uint64) (T, bool) {
	s := rec.tSeg.Load()
	sl := &s.slots[ticketIdx(rec.tPub.Load())]
	v := sl.val
	yield.At(yield.RGHelpPromote, tid, tid)
	sl.word.Store(slotConsumed)
	q.closeRequest(rec, seq)
	return v, true
}

// finishDeqEmpty finalizes an owner-proven empty observation. Helpers
// never produce doneDeqEmpty and can only finalize a value through a
// LIVE ticket, and every path into this function leaves the current
// ticket dead (slot terminal) or absent — so the CAS cannot lose; the
// fallback tolerates a protocol violation soundly rather than losing a
// helped value.
func (q *Queue[T]) finishDeqEmpty(tid int, rec *helpRec[T], seq uint64) (T, bool) {
	var zero T
	if rec.ctl.CompareAndSwap(ctlWord(seq, hsDeqPending), ctlWord(seq, hsDoneDeqEmpty)) {
		q.closeRequest(rec, seq)
		return zero, false
	}
	return q.finishDeqVal(tid, rec, seq)
}

// resolveReserved drives a reserved slot forward: finalize the owning
// enqueue request if it is still pending, then promote the slot to
// committed. Called by any dequeuer whose claim lands on a reserved slot
// (instead of burning it — that is the point) and by deq-ticket helpers,
// with the reserved word w the caller branched on: the owner and request
// are decoded from w, and the promote is CAS(w → committed), so it can
// only act on the reservation the caller saw. Bounded: one finalize CAS
// plus one promote CAS.
//
// Soundness of the unconditional promote: a reserved slot always belongs
// to its record's CURRENT attempt (tickets move only after the previous
// slot is terminal, and reserved is not terminal), and its owner always
// finalizes and promotes before idling — so the request either was
// finalized through this very slot or is about to be; promoting early
// merely lets the claimant consume a value whose enqueue is already
// decided.
func (q *Queue[T]) resolveReserved(tid int, sl *slot[T], w uint64) {
	owner, seq := reservedBy(w)
	rec := &q.recs[owner]
	if rec.ctl.Load() == ctlWord(seq, hsEnqPending) {
		yield.At(yield.RGHelpFinalize, tid, owner)
		if rec.ctl.CompareAndSwap(ctlWord(seq, hsEnqPending), ctlWord(seq, hsDoneEnq)) {
			q.helpFinalizes.Add(1)
		}
	}
	yield.At(yield.RGHelpPromote, tid, owner)
	sl.word.CompareAndSwap(w, slotCommitted)
}

// helpOldest is the helping obligation every operation pays at entry
// while the slow gate is up. Instead of the old O(nthreads) scan over
// all records, it asks the helptree for the OLDEST announced request —
// an O(log nthreads) root-to-leaf descent — and makes one bounded help
// attempt on it. Two descents cover the common churn case (first find
// clears a stale leaf, second lands on a live request).
//
// The cyclic cursor probe is the backstop for the announce gap: a
// request announces only after its ticket is public, so a thread frozen
// between openRequest and announce is tree-invisible. The probe visits
// one record per gated entry in round-robin order, which restores the
// old scan's coverage at 1/n of its cost — enough, because a request in
// the gap either publishes a ticket (then the tree finds it) or is
// frozen pre-ticket (then nobody, scan included, could help it anyway).
func (q *Queue[T]) helpOldest(tid int) {
	cur := &q.helpCur[tid]
	i := cur.i
	cur.i++
	if cur.i >= q.nthreads {
		cur.i = 0
	}
	if i != tid {
		q.helpRecord(tid, i, 0, false)
	}
	if q.tree == nil {
		return
	}
	for r := 0; r < 2; r++ {
		owner, w, ok := q.tree.Oldest(tid)
		if !ok {
			continue // descent hit churn; the tree self-repaired
		}
		if owner == tid {
			return // oldest is us; drive our own request instead
		}
		if q.helpRecord(tid, owner, w, true) {
			return
		}
	}
}

// helpRecord makes one bounded help attempt on owner's record: the same
// O(1) ticket-read-and-drive step the old scan performed per record.
// fromTree carries the leaf word the tree reported so a request found
// already decided can have its stale announcement cleared (the CAS is
// exact-word, so it can never wipe a newer announcement). Returns true
// if the record held a live pending request.
func (q *Queue[T]) helpRecord(tid, owner int, w uint64, fromTree bool) bool {
	rec := &q.recs[owner]
	ctl := rec.ctl.Load()
	st := ctlState(ctl)
	if st != hsEnqPending && st != hsDeqPending {
		if fromTree {
			q.tree.ClearStale(tid, owner, w)
		}
		return false
	}
	tw := rec.tPub.Load()
	if tw == 0 {
		return true // pending but pre-ticket: not helpable yet
	}
	s := rec.tSeg.Load()
	yield.At(yield.RGHelpScan, tid, owner)
	// Announce s, then re-validate (see the package comment): first the
	// life word, then the ticket. The order matters. A ticket still live
	// after the life read names the life of s that read saw, and an even
	// word there shows that life was not retired before the
	// announcement, so every retire scan of it reads the announcement
	// and drops s instead of recycling it. The tPub re-read also closes
	// the seqlock read of (tw, s).
	q.ann[tid].p.Store(s)
	if s.life.Load()&1 != 0 {
		// Retired: every slot of s is claimed, and the claimant and
		// the owner resolve the ticket's slot between them.
		return true
	}
	if rec.ctl.Load() != ctl || rec.tPub.Load() != tw {
		return true
	}
	yield.At(yield.RGHelpPinned, tid, owner)
	sl := &s.slots[ticketIdx(tw)]
	if ticketIsDeq(tw) {
		q.helpDeqTicket(tid, owner, rec, sl, ctl)
	} else {
		q.helpEnqTicket(tid, owner, rec, sl, ctl)
	}
	return true
}

// helpEnqTicket performs the reserve/finalize/promote steps for a
// validated enqueue ticket of the request ctl names. It reserves with
// the same word the owner would, built from owner and ctl's seq, so
// whichever reserve CAS wins, the slot names this request. The ticket
// may die under us — a dequeuer burns the slot before anyone reserves
// it — and then the reserve CAS fails on unsafe, which is terminal in
// the segment life our announcement pins. Any other outcome means the
// slot is reserved for this request, so finalizing ctl is sound.
func (q *Queue[T]) helpEnqTicket(tid, owner int, rec *helpRec[T], sl *slot[T], ctl uint64) {
	rw := reservedWord(owner, ctlSeq(ctl))
	if !sl.word.CompareAndSwap(slotEmpty, rw) && sl.word.Load() == slotUnsafe {
		return // burned before any reserve; the owner re-claims
	}
	yield.At(yield.RGHelpFinalize, tid, owner)
	if rec.ctl.CompareAndSwap(ctl, ctlWord(ctlSeq(ctl), hsDoneEnq)) {
		q.helpFinalizes.Add(1)
	}
	yield.At(yield.RGHelpPromote, tid, owner)
	sl.word.CompareAndSwap(rw, slotCommitted)
}

// helpDeqTicket finalizes a committed value for the pending slow dequeue
// ctl names. The validated ticket belongs to that request, and a slot
// seen committed is never burned, so the owner never moves the ticket
// off it: the CAS from ctl can only deliver this slot to this request.
func (q *Queue[T]) helpDeqTicket(tid, owner int, rec *helpRec[T], sl *slot[T], ctl uint64) {
	if w := sl.word.Load(); w&slotMask == slotReserved {
		q.resolveReserved(tid, sl, w)
	}
	if sl.word.Load() != slotCommitted {
		return // empty/unsafe: only the owner can burn or prove empty
	}
	yield.At(yield.RGHelpFinalize, tid, owner)
	if rec.ctl.CompareAndSwap(ctl, ctlWord(ctlSeq(ctl), hsDoneDeqVal)) {
		q.helpFinalizes.Add(1)
		sl.word.Store(slotConsumed)
	}
}
