// Package ring is the ring-segment storage backend: the queue's elements
// live in fixed-size contiguous slot arrays (segments) claimed by a
// single fetch-and-add per operation, with segments chained into a list
// only when a ring fills. It is the cache-shaped alternative to the
// linked Kogan–Petrank core — no per-element allocation, no per-element
// pointer chase — in the direction of SCQ/LCRQ/wCQ/Jiffy (see PAPERS.md
// and ALGORITHM.md, "Ring-segment storage").
//
// # Slot state machine
//
// Every slot is used AT MOST ONCE per segment life (indices never cycle
// within a segment), so its state only moves forward — no in-slot ABA:
//
//	empty ──commit CAS (enqueuer)──▶ committed ──store (dequeuer)──▶ consumed
//	  └────burn CAS (dequeuer)─────▶ unsafe                 (terminal)
//
// The enqueuer holding claim t writes the value into slots[t] and then
// publishes it with CAS(empty→committed). The dequeuer holding claim h
// is the UNIQUE claimant of h (claims come from fetch-and-add), so when
// it finds slots[h] committed a plain atomic store to consumed suffices.
// When it finds slots[h] still empty it BURNS the slot with
// CAS(empty→unsafe): no dequeuer will ever claim h again, so leaving it
// empty would lose the value a slow enqueuer later committed there. A
// burned enqueuer's commit CAS fails and it retries with a fresh claim.
//
// # Linearization
//
// An enqueue linearizes at the claim fetch-and-add of the attempt whose
// commit CAS succeeds (the standard ring-queue rule: the claim orders
// the value, the commit makes the order effective; a burned attempt
// never happened). A dequeue linearizes at the claim fetch-and-add of
// the attempt that consumed a value. Consumed values therefore leave in
// (segment, slot index) order — exactly enqueue order — which is the
// FIFO argument. An empty result linearizes at the post-burn enqIdx
// load (or the pre-claim deqIdx/enqIdx read): at that instant every
// enqueue claim at or below the burned index is either consumed,
// claimed by a concurrent dequeuer (whose removal can be linearized
// before ours), or doomed to fail its commit — so the abstract queue is
// empty. The burn MUST precede the empty report: reporting empty first
// and burning later (or not at all) would strand a value committed in
// the window. See ALGORITHM.md for the full argument.
//
// # Segment boundary and reclamation
//
// A claim landing at or past the segment size sends the operation to
// the boundary protocol: enqueuers install a next segment
// (CAS nil→fresh) and swing tail; dequeuers whose segment is exhausted
// help swing tail first (so tail never trails into a retired segment)
// and then swing head, and the unique head-swing winner retires the old
// segment. Retirement is the ONLY place the per-thread announcement
// array is scanned — the hazard-pointer-style cost is paid once per
// segSize operations, not per operation. Every operation announces the
// segment it is about to fetch-and-add on and validates the
// announcement against a re-read of the root pointer (the usual
// publish-then-validate protocol), and a helper acting on another
// thread's ticket announces the ticket's segment and then re-validates
// both the ticket and the segment's life word, which the retirer marks
// before it scans (helping.go). A segment observed announced is
// simply dropped to the garbage collector instead of recycled; a
// segment observed unannounced by the retirer can never be touched
// again and is reset and put into the queue's sync.Pool, so a drained
// backlog is reused by the next refill and the steady state, helped
// bursts included, is allocation-free, while the GC still reclaims
// segments that stay idle across two collections.
// Announcements are NOT cleared on operation exit (that would cost a
// store per op); a stale announcement pins at most one retired segment
// per thread, which the retire scan conservatively drops.
//
// # Progress
//
// Claims are wait-free (one FAA). A retry happens only when another
// thread linearized an operation against ours (a dequeuer burned our
// enqueue claim; an enqueue grew the segment past our empty check) or a
// segment boundary was crossed — the lock-free guarantee of SCQ/LCRQ,
// with every retry charged to another thread's completed linearization.
// On top of that, helping (on by default; see WithPatience /
// WithoutHelping) bounds the retries: an operation that fails its
// patience-many fast attempts publishes a per-thread helping record and
// continues through a wCQ-direction slow path in which every claimed
// slot is announced by a public ticket BEFORE it is resolved, so any
// other thread — including the dequeuer that would otherwise burn it —
// can finish the operation on the owner's behalf. helping.go carries
// the protocol and its correctness argument; ALGORITHM.md ("Wait-free
// ring helping") states the resulting guarantee, and its honest
// boundary, in full.
package ring

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"wfq/internal/helptree"
	"wfq/internal/yield"
)

// DefaultSegSize is the slots-per-segment count used when New is given
// segSize <= 0: large enough that boundary crossings (and their
// announcement scans) are rare, small enough that a mostly-empty queue
// holds only a few KiB.
const DefaultSegSize = 1024

// sepBytes matches internal/core's false-sharing unit: two cache lines,
// for the adjacent-cacheline prefetcher.
const sepBytes = 128

// Slot states: the low stateBits bits of a slot word, monotone per
// segment life (see the package comment). With helping enabled the
// commit edge may pass through an intermediate reserved state
// (empty → reserved → committed): a slow enqueuer (or a helper acting on
// its ticket) reserves the slot, the request is finalized on the owning
// record, and the slot is then promoted to committed. Reserved is NOT
// terminal and never burned — a dequeuer claimant that finds it resolves
// the owning request instead (see resolveReserved in helping.go). Only
// the reserved word carries more than its state: reservedWord packs the
// reserving request's identity above the state bits.
const (
	slotEmpty uint64 = iota
	slotCommitted
	slotConsumed
	slotUnsafe
	slotReserved
	stateBits        = 3
	slotMask  uint64 = 1<<stateBits - 1
)

// slot is deliberately compact, like SCQ/LCRQ cells, NOT padded:
// neighbouring slots share a cache line by design — that sharing is the
// sequential-access win the backend exists for, and the slots an
// enqueuer and dequeuer touch concurrently are segSize apart in the
// common case. word is the slot's one control word: its low stateBits
// bits are the state, and a reserved word also names the record and
// request that reserved it (reservedWord in helping.go), so the reserve
// CAS publishes the state and the identity together and a claimant
// decodes the identity from the very word it branched on. 16 bytes for
// a word-sized T.
type slot[T any] struct {
	word atomic.Uint64
	val  T
}

// segment is one contiguous ring of slots. enqIdx/deqIdx are the claim
// counters (monotone, per segment life; values at or past len(slots)
// are boundary overshoots, not slots). next is set once per life, by
// the boundary protocol. life counts the segment's retirements and
// resets: it turns odd when the head swing unlinks the segment (retire)
// and even again when reset re-arms it, so each life has its own even
// value, which helpers compare to pin the life they read (helpRecord).
type segment[T any] struct {
	enqIdx atomic.Uint64
	_      [sepBytes - 8]byte
	deqIdx atomic.Uint64
	_      [sepBytes - 8]byte
	next   atomic.Pointer[segment[T]]
	life   atomic.Uint64
	_      [sepBytes - 16]byte
	slots  []slot[T]
}

// reset returns a retired, exclusively owned segment to its pristine
// state before it enters the pool. The stores are atomic only because
// racy Len/Stats walkers may still hold a stale reference; the
// happens-before edge for the next owner is the pool's Put/Get pair.
func (s *segment[T]) reset() {
	var zero T
	for i := range s.slots {
		s.slots[i].word.Store(slotEmpty)
		s.slots[i].val = zero
	}
	s.enqIdx.Store(0)
	s.deqIdx.Store(0)
	s.next.Store(nil)
	s.life.Add(1) // even: a new life
}

// annSlot is one thread's announcement: the segment it may be about to
// fetch-and-add on. Padded — it is written on every operation.
type annSlot[T any] struct {
	p atomic.Pointer[segment[T]]
	_ [sepBytes - 8]byte
}

// helpCursor is one thread's cyclic index into the helping records for
// the deterministic probe backstop (owner-written only; padded because
// it moves on every gated entry).
type helpCursor struct {
	i int
	_ [sepBytes - 8]byte
}

// Queue is the ring-segment MPMC queue. Create one with New; all
// methods are safe for concurrent use by up to NumThreads() threads
// with distinct tids.
type Queue[T any] struct {
	head atomic.Pointer[segment[T]]
	_    [sepBytes - 8]byte
	tail atomic.Pointer[segment[T]]
	_    [sepBytes - 8]byte

	segSize  uint64
	nthreads int
	helping  bool
	patience int

	ann []annSlot[T]
	// pool holds pristine, exclusively owned segments: reset retirees
	// that passed both retire checks, and lost-install fresh segments.
	pool sync.Pool

	// recs are the pre-allocated per-thread helping records; slow is
	// the gate counter — positive while any request is pending, which
	// is when operations pay the bounded help step at entry (a cursor
	// probe plus an O(log n) helptree descent — see helpOldest).
	recs []helpRec[T]
	slow atomic.Int64
	_    [sepBytes - 8]byte
	// tree is the helptree announcement structure (helping mode only):
	// slow requests announce (phase, tid) once their ticket is public,
	// and gated entries descend to the oldest instead of scanning all
	// records. helpPhase hands out the global priorities; helpCur is
	// the per-thread cursor of the deterministic probe backstop.
	tree      *helptree.Tree
	helpCur   []helpCursor
	helpPhase atomic.Uint64

	// Reclamation and slow-lane statistics (see Stats). All are off the
	// successful hot path: the segment counters move once per segSize
	// operations, the burn/retry counters only on the slow lane.
	segAllocs     atomic.Int64
	segReused     atomic.Int64
	segRecycled   atomic.Int64
	segDropped    atomic.Int64
	deqBurns      atomic.Int64
	enqRetries    atomic.Int64
	slowEnqs      atomic.Int64
	slowDeqs      atomic.Int64
	helpFinalizes atomic.Int64
}

// options collects New's configuration knobs.
type options struct {
	helping  bool
	patience int
}

// Option configures New.
type Option func(*options)

// WithPatience enables the wait-free helping slow path after p failed
// fast-path attempts (burned commits or boundary overshoots). p == 0
// sends every operation straight to the slow path — the configuration
// adversarial tests use; p < 0 selects DefaultPatience.
func WithPatience(p int) Option {
	return func(o *options) {
		if p < 0 {
			p = DefaultPatience
		}
		o.helping = true
		o.patience = p
	}
}

// WithoutHelping disables the helping slow path entirely, restoring the
// PR 6 lock-free behaviour (no gate check, no reserved state ever
// reached). The chaos matrix keeps this configuration as its lock-free
// baseline rows.
func WithoutHelping() Option {
	return func(o *options) {
		o.helping = false
	}
}

// New creates a ring-segment queue for up to nthreads concurrent
// threads with segSize slots per segment (<= 0 selects DefaultSegSize).
// Helping is enabled with DefaultPatience unless configured otherwise.
func New[T any](nthreads, segSize int, opts ...Option) *Queue[T] {
	if nthreads <= 0 {
		panic("ring: nthreads must be positive")
	}
	if nthreads > maxThreads {
		panic("ring: nthreads exceeds the helping identity word's capacity")
	}
	if segSize <= 0 {
		segSize = DefaultSegSize
	}
	if segSize > maxSegSlots {
		panic("ring: segSize exceeds the helping ticket word's capacity")
	}
	o := options{helping: true, patience: DefaultPatience}
	for _, opt := range opts {
		opt(&o)
	}
	q := &Queue[T]{
		segSize:  uint64(segSize),
		nthreads: nthreads,
		helping:  o.helping,
		patience: o.patience,
		ann:      make([]annSlot[T], nthreads),
		recs:     make([]helpRec[T], nthreads),
	}
	for i := range q.recs {
		q.recs[i].tid = int32(i)
	}
	if o.helping {
		q.tree = helptree.New(nthreads)
		q.helpCur = make([]helpCursor, nthreads)
	}
	s := q.newSegment()
	q.head.Store(s)
	q.tail.Store(s)
	return q
}

// NumThreads reports the queue's thread capacity.
func (q *Queue[T]) NumThreads() int { return q.nthreads }

// SegSize reports the slots-per-segment count.
func (q *Queue[T]) SegSize() int { return int(q.segSize) }

// Helping reports whether the wait-free helping slow path is enabled;
// Patience the fast-path attempt bound before an operation takes it.
func (q *Queue[T]) Helping() bool { return q.helping }
func (q *Queue[T]) Patience() int { return q.patience }

// Name implements the harness's Named interface.
func (q *Queue[T]) Name() string { return "ring" }

func (q *Queue[T]) checkTid(tid int) {
	if tid < 0 || tid >= q.nthreads {
		panic(fmt.Sprintf("ring: tid %d out of range [0,%d)", tid, q.nthreads))
	}
}

// enter announces root's current segment for thread tid and validates
// the announcement with a re-read — the publish-then-validate protocol
// that makes the retire-time announcement scan sound: a segment that
// passed validation cannot have been retired before the announcement
// became visible, so the retirer's scan saw it and refused to recycle.
func (q *Queue[T]) enter(tid int, root *atomic.Pointer[segment[T]]) *segment[T] {
	for {
		s := root.Load()
		q.ann[tid].p.Store(s)
		if root.Load() == s {
			return s
		}
	}
}

// newSegment heap-allocates a segment (pool miss path).
func (q *Queue[T]) newSegment() *segment[T] {
	q.segAllocs.Add(1)
	return &segment[T]{slots: make([]slot[T], q.segSize)}
}

// getSegment takes a pooled segment or allocates a fresh one.
func (q *Queue[T]) getSegment() *segment[T] {
	if s, _ := q.pool.Get().(*segment[T]); s != nil {
		q.segReused.Add(1)
		return s
	}
	return q.newSegment()
}

// recycle pools an exclusively owned pristine segment.
func (q *Queue[T]) recycle(s *segment[T]) {
	q.pool.Put(s)
	q.segRecycled.Add(1)
}

// retire processes a segment the caller just unlinked from the chain
// (the caller won the head-swing CAS, so it is the unique retirer).
// This is the only announcement scan in the algorithm — once per
// segSize dequeues. The retirer skips its own announcement: it is
// necessarily still naming s (enter published it), and the retirer
// makes no further use of s. The scan reads one announcement at a
// time, so it is not a snapshot; marking s retired first is what lets
// a helper, which finds s through a ticket rather than a root, tell
// whether its announcement came too late for the scan (helpRecord).
func (q *Queue[T]) retire(tid int, s *segment[T]) {
	s.life.Add(1) // odd: retired
	for i := range q.ann {
		if i == tid {
			continue
		}
		p := q.ann[i].p.Load()
		yield.At(yield.RGRetireScan, tid, i)
		if p == s {
			// Announced by a thread that may be about to fetch-and-add
			// on s — or by a stale announcement; either way recycling
			// would be unsound or unverifiable, so let the GC have it.
			q.segDropped.Add(1)
			return
		}
	}
	s.reset()
	q.recycle(s)
}

// advanceTail moves tail past the filled segment s (announced by the
// caller): install a next segment if none exists, then swing tail. Any
// thread that observes the filled segment may help either step.
func (q *Queue[T]) advanceTail(tid int, s *segment[T]) {
	next := s.next.Load()
	if next == nil {
		fresh := q.getSegment()
		yield.At(yield.RGSegAdvance, tid, tid)
		if s.next.CompareAndSwap(nil, fresh) {
			next = fresh
		} else {
			// Lost the install; fresh is still pristine and exclusively
			// ours, so it can go straight back to the pool.
			q.recycle(fresh)
			next = s.next.Load()
		}
	}
	yield.At(yield.RGSegAdvance, tid, tid)
	q.tail.CompareAndSwap(s, next)
}

// advanceHead moves head past the exhausted segment s (every slot
// claimed by a dequeuer; announced by the caller). It returns false
// when there is no next segment — the chain ends at a fully consumed
// segment, which is a linearizable empty observation: every claim at
// or below the last slot is accounted for and no later segment exists.
// Tail is helped past s BEFORE head so tail can never point at a
// retired segment.
func (q *Queue[T]) advanceHead(tid int, s *segment[T]) bool {
	next := s.next.Load()
	if next == nil {
		return false
	}
	if q.tail.Load() == s {
		yield.At(yield.RGSegAdvance, tid, tid)
		q.tail.CompareAndSwap(s, next)
	}
	yield.At(yield.RGSegAdvance, tid, tid)
	if q.head.CompareAndSwap(s, next) {
		q.retire(tid, s)
	}
	return true
}

// Enqueue inserts v on behalf of thread tid: claim a slot with one FAA,
// write the value, publish with the commit CAS. A failed commit means a
// dequeuer burned the claim; retry with a fresh one — up to the patience
// bound, after which the operation goes through the helpable slow path
// (helping.go). While any slow request is pending, the operation first
// pays its help obligation.
func (q *Queue[T]) Enqueue(tid int, v T) {
	q.checkTid(tid)
	if q.helping && q.slow.Load() > 0 {
		q.helpOldest(tid)
	}
	fails := 0
	for {
		if q.helping && fails >= q.patience {
			q.enqueueSlow(tid, v)
			return
		}
		yield.At(yield.RGRetry, tid, tid)
		s := q.enter(tid, &q.tail)
		t := s.enqIdx.Add(1) - 1
		if t >= q.segSize {
			q.advanceTail(tid, s)
			fails++
			continue
		}
		sl := &s.slots[t]
		sl.val = v
		yield.At(yield.RGEnqClaim, tid, tid)
		if sl.word.CompareAndSwap(slotEmpty, slotCommitted) {
			return
		}
		// Burned: the dequeuer that claimed t linearized an empty (or
		// skipped) against this attempt; the value never became visible.
		q.enqRetries.Add(1)
		fails++
	}
}

// Dequeue removes and returns the oldest element on behalf of thread
// tid; ok is false when the queue was observed empty at the operation's
// linearization point (see the package comment). A claimed slot found
// reserved by a slow enqueuer is resolved — the pending enqueue is
// finished and its value consumed — instead of burned; an operation that
// exhausts its patience in the burn-and-retry loop continues through the
// helpable slow path.
func (q *Queue[T]) Dequeue(tid int) (v T, ok bool) {
	q.checkTid(tid)
	if q.helping && q.slow.Load() > 0 {
		q.helpOldest(tid)
	}
	var zero T
	fails := 0
	for {
		if q.helping && fails >= q.patience {
			return q.dequeueSlow(tid)
		}
		yield.At(yield.RGRetry, tid, tid)
		s := q.enter(tid, &q.head)
		d := s.deqIdx.Load()
		if d >= q.segSize {
			if !q.advanceHead(tid, s) {
				return zero, false
			}
			fails++
			continue
		}
		e := s.enqIdx.Load()
		if d >= e {
			// No claimable slot existed when these counters were read.
			// With no next segment that is a linearizable empty; with
			// one, enqueuers have already crossed the boundary (enqIdx
			// only passes segSize by overshooting), so re-probe.
			if s.next.Load() == nil {
				return zero, false
			}
			fails++
			continue
		}
		h := s.deqIdx.Add(1) - 1
		if h >= q.segSize {
			// Concurrent claims exhausted the segment under us; the next
			// iteration takes the boundary path.
			fails++
			continue
		}
		sl := &s.slots[h]
		yield.At(yield.RGDeqClaim, tid, tid)
		// The claim h is exclusively ours: the slot is committed (take
		// it), reserved (finish the owning slow enqueue, then take it),
		// or empty (burn it; a commit or reserve landing in the CAS
		// window makes the re-read take the other arm).
	claim:
		for {
			w := sl.word.Load()
			switch w & slotMask {
			case slotCommitted:
				v = sl.val
				sl.word.Store(slotConsumed)
				return v, true
			case slotReserved:
				q.resolveReserved(tid, sl, w)
			case slotEmpty:
				if !sl.word.CompareAndSwap(slotEmpty, slotUnsafe) {
					continue
				}
				q.deqBurns.Add(1)
				// Burned h. If no enqueue claim exceeds h and no next
				// segment exists, every enqueue claim in the queue is at
				// an index some dequeuer owns — each either consumed,
				// concurrently being consumed, or doomed by a burn — so
				// the queue is empty. The burn MUST come before this
				// check: once deqIdx passed h, no dequeuer would ever
				// claim h again, and a commit landing there after an
				// unburned empty report would be lost.
				if s.enqIdx.Load() <= h+1 && s.next.Load() == nil {
					return zero, false
				}
				break claim
			default:
				// unsafe: unreachable for our exclusive unburned claim;
				// tolerate by re-claiming.
				break claim
			}
		}
		fails++
	}
}

// EnqueueBatch inserts vs in order on behalf of thread tid, claiming up
// to len(vs) contiguous slots with ONE fetch-and-add per segment window.
// In the common case (no concurrent burn, no boundary straddle) the
// whole batch is contiguous in FIFO order; a burned or out-of-range
// remainder is retried under a fresh claim, making the batch equivalent
// to len(vs) single enqueues that shared claim FAAs — the same
// linearization rule, value by value.
func (q *Queue[T]) EnqueueBatch(tid int, vs []T) {
	q.checkTid(tid)
	if q.helping && q.slow.Load() > 0 {
		q.helpOldest(tid)
	}
	// Patience is per value, as for a single Enqueue: fails counts the
	// failed attempts since the last commit, and a value that exhausts
	// it goes alone through the helpable slow path. One burst of burns
	// (a dequeuer overtaking the batch's writes) thus costs one slow
	// value, not the slow path for the rest of the batch.
	fails := 0
	i := 0
	for i < len(vs) {
		if q.helping && fails >= q.patience {
			q.enqueueSlow(tid, vs[i])
			i++
			fails = 0
			continue
		}
		yield.At(yield.RGRetry, tid, tid)
		s := q.enter(tid, &q.tail)
		want := uint64(len(vs) - i)
		if want > q.segSize {
			want = q.segSize
		}
		t := s.enqIdx.Add(want) - want
		if t >= q.segSize {
			q.advanceTail(tid, s)
			fails++
			continue
		}
		end := min(t+want, q.segSize)
		// Per-element yield emission is hook-gated, as in the sharded
		// frontend: without a hook it would be (end-t) wasted atomic
		// loads on the hot path.
		hooked := yield.Enabled()
		for idx := t; idx < end; idx++ {
			sl := &s.slots[idx]
			sl.val = vs[i]
			if hooked {
				yield.At(yield.RGEnqClaim, tid, tid)
			}
			if sl.word.CompareAndSwap(slotEmpty, slotCommitted) {
				i++
				fails = 0
				continue
			}
			// Burned: this claimed slot is lost, but the NEXT claimed
			// slot can carry the same value.
			q.enqRetries.Add(1)
			fails++
		}
		if t+want > q.segSize {
			q.advanceTail(tid, s)
		}
	}
}

// DequeueBatch removes up to len(dst) elements into dst, claiming the
// segment's available window with one fetch-and-add; each claimed slot
// is then consumed or burned exactly as a single dequeue would. It
// stops early only on an empty observation (delegated to Dequeue, which
// owns the boundary and empty protocols).
func (q *Queue[T]) DequeueBatch(tid int, dst []T) int {
	q.checkTid(tid)
	if q.helping && q.slow.Load() > 0 {
		q.helpOldest(tid)
	}
	n := 0
	for n < len(dst) {
		yield.At(yield.RGRetry, tid, tid)
		s := q.enter(tid, &q.head)
		d := s.deqIdx.Load()
		e := min(s.enqIdx.Load(), q.segSize)
		if d >= e {
			v, ok := q.Dequeue(tid)
			if !ok {
				return n
			}
			dst[n] = v
			n++
			continue
		}
		want := min(uint64(len(dst)-n), e-d)
		h := s.deqIdx.Add(want) - want
		hooked := yield.Enabled()
		for j := uint64(0); j < want && h+j < q.segSize; j++ {
			sl := &s.slots[h+j]
			if hooked {
				yield.At(yield.RGDeqClaim, tid, tid)
			}
			// Same claimed-slot state machine as Dequeue: consume
			// committed, resolve reserved (finish the slow enqueue it
			// belongs to), burn empty.
		claim:
			for {
				w := sl.word.Load()
				switch w & slotMask {
				case slotCommitted:
					v := sl.val
					sl.word.Store(slotConsumed)
					dst[n] = v
					n++
					break claim
				case slotReserved:
					q.resolveReserved(tid, sl, w)
				case slotEmpty:
					if sl.word.CompareAndSwap(slotEmpty, slotUnsafe) {
						q.deqBurns.Add(1)
						break claim
					}
				default:
					// unsafe: unreachable for our exclusive unburned
					// claim; tolerate by skipping the slot.
					break claim
				}
			}
		}
	}
	return n
}

// Len reports a racy snapshot of the number of committed, unclaimed
// elements. O(live slots); monitoring and tests only — exact when the
// queue is quiescent.
func (q *Queue[T]) Len() int {
	n := 0
	for s := q.head.Load(); s != nil; s = s.next.Load() {
		e := min(s.enqIdx.Load(), q.segSize)
		d := min(s.deqIdx.Load(), e)
		for i := d; i < e; i++ {
			if s.slots[i].word.Load() == slotCommitted {
				n++
			}
		}
	}
	return n
}

// Stats is a racy snapshot of the backend's memory behaviour — the
// observable side of the bounded-memory claim: LiveSegments stays at a
// handful in steady state, Reused tracks Recycled, and Allocated stops
// growing once the pool holds the backlog's high-water mark.
type Stats struct {
	// SegSize is the configured slots-per-segment count; SegmentBytes
	// the approximate heap footprint of one segment (header + slots).
	SegSize      int   `json:"seg_size"`
	SegmentBytes int64 `json:"segment_bytes"`
	// LiveSegments counts segments currently on the head→tail chain.
	LiveSegments int `json:"live_segments"`
	// Allocated counts segments ever heap-allocated; Reused pool hits;
	// Recycled segments put into the pool (reset retirees and
	// lost-install fresh segments; the GC may still take them back);
	// Dropped retirees left to the GC (announced at the retire scan).
	Allocated int64 `json:"allocated"`
	Reused    int64 `json:"reused"`
	Recycled  int64 `json:"recycled"`
	Dropped   int64 `json:"dropped"`
	// DeqBurns counts slots burned empty→unsafe by dequeuers; EnqRetries
	// counts enqueue attempts that lost their slot to such a burn.
	DeqBurns   int64 `json:"deq_burns"`
	EnqRetries int64 `json:"enq_retries"`
	// Helping/slow-path counters (zero with WithoutHelping): SlowEnqs/
	// SlowDeqs count operations that exhausted their patience and
	// published a helping record; HelpFinalizes counts requests whose
	// finalizing CAS was won by a thread other than the owner.
	SlowEnqs      int64 `json:"slow_enqs"`
	SlowDeqs      int64 `json:"slow_deqs"`
	HelpFinalizes int64 `json:"help_finalizes"`
}

// Stats reads the counters and walks the live chain.
func (q *Queue[T]) Stats() Stats {
	st := Stats{
		SegSize: int(q.segSize),
		SegmentBytes: int64(unsafe.Sizeof(segment[T]{})) +
			int64(q.segSize)*int64(unsafe.Sizeof(slot[T]{})),
		Allocated:     q.segAllocs.Load(),
		Reused:        q.segReused.Load(),
		Recycled:      q.segRecycled.Load(),
		Dropped:       q.segDropped.Load(),
		DeqBurns:      q.deqBurns.Load(),
		EnqRetries:    q.enqRetries.Load(),
		SlowEnqs:      q.slowEnqs.Load(),
		SlowDeqs:      q.slowDeqs.Load(),
		HelpFinalizes: q.helpFinalizes.Load(),
	}
	for s := q.head.Load(); s != nil; s = s.next.Load() {
		st.LiveSegments++
	}
	return st
}
