package ring

import (
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"wfq/internal/yield"
)

// TestBurnWindow forces the central slot race: an enqueuer claims a slot
// and stalls between the claim FAA and the commit CAS. A dequeuer that
// claims the same slot must not wait for it — it burns the slot
// (empty -> unsafe), observes the segment has no later committed work,
// and reports empty. The resumed enqueuer's commit CAS fails and its
// value lands in a fresh slot, where the next dequeue finds it.
func TestBurnWindow(t *testing.T) {
	const enq, deq = 0, 1
	q := New[int64](2, 8)

	parked := make(chan struct{})
	resume := make(chan struct{})
	var once sync.Once
	prev := yield.Set(func(p yield.Point, caller, owner int) {
		if p == yield.RGEnqClaim && caller == enq {
			once.Do(func() {
				close(parked)
				<-resume
			})
		}
	})
	defer yield.Set(prev)

	done := make(chan struct{})
	go func() {
		q.Enqueue(enq, 42) // claims slot 0, parks before the commit CAS
		close(done)
	}()
	<-parked

	// Slot 0 is claimed but uncommitted. The dequeuer burns it and must
	// report empty — the enqueue has not linearized, and waiting on the
	// parked enqueuer would forfeit lock-freedom.
	if v, ok := q.Dequeue(deq); ok {
		t.Fatalf("dequeue during burn window returned (%d,true), want empty", v)
	}

	close(resume)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("enqueuer never completed after burn")
	}

	// The retried commit landed the value in a later slot.
	if v, ok := q.Dequeue(deq); !ok || v != 42 {
		t.Fatalf("post-burn dequeue = (%d,%v), want (42,true)", v, ok)
	}
	st := q.Stats()
	if st.DeqBurns != 1 || st.EnqRetries != 1 {
		t.Fatalf("stats after burn window: %+v", st)
	}
}

// TestBatchBurnBurstCostsOneSlowValue lets a dequeuer overtake a batch
// enqueue mid-window: it claims the batch's first slot before the commit
// CAS and, finding every slot of the window still uncommitted, burns the
// whole window. Patience is per value, so the burst sends only the value
// that ran out of it down the slow path; the rest of the batch stays on
// the fast path and the batch keeps its FIFO order.
func TestBatchBurnBurstCostsOneSlowValue(t *testing.T) {
	const enq, deq, seg, n = 0, 1, 16, 64
	q := New[int64](2, seg)

	overtaken := false
	prev := yield.Set(func(p yield.Point, caller, owner int) {
		if p == yield.RGEnqClaim && caller == enq && !overtaken {
			overtaken = true
			if v, ok := q.Dequeue(deq); ok {
				t.Errorf("overtaking dequeue returned (%d,true), want empty", v)
			}
		}
	})
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = int64(i)
	}
	q.EnqueueBatch(enq, vs)
	yield.Set(prev)

	st := q.Stats()
	if st.DeqBurns != seg {
		t.Fatalf("overtaking dequeue burned %d slots, want the whole window (%d): %+v", st.DeqBurns, seg, st)
	}
	if st.SlowEnqs != 1 {
		t.Fatalf("batch sent %d values down the slow path, want 1: %+v", st.SlowEnqs, st)
	}
	for _, want := range vs {
		if v, ok := q.Dequeue(deq); !ok || v != want {
			t.Fatalf("drain = (%d,%v), want (%d,true)", v, ok, want)
		}
	}
	if _, ok := q.Dequeue(deq); ok {
		t.Fatal("queue not empty after drain")
	}
}

// TestHelpedBurstRefillAllocatesNothing runs the burst of
// TestBatchBurnBurstCostsOneSlowValue — one value of the batch goes
// through the slow path and leaves a ticket on its segment — then
// drains the queue and refills it, as TestBacklogRefillReusesSegments
// does, with the collector off. The ticketed segment retires
// unannounced and is pooled like the others, so the refill takes every
// segment it needs from the pool and allocates none.
func TestHelpedBurstRefillAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a random share of Puts")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const enq, deq, seg, n = 0, 1, 16, 64
	q := New[int64](2, seg)
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = int64(i)
	}
	drain := func() {
		for _, want := range vs {
			if v, ok := q.Dequeue(deq); !ok || v != want {
				t.Fatalf("drain = (%d,%v), want (%d,true)", v, ok, want)
			}
		}
		if _, ok := q.Dequeue(deq); ok {
			t.Fatal("queue not empty after drain")
		}
	}

	overtaken := false
	prev := yield.Set(func(p yield.Point, caller, owner int) {
		if p == yield.RGEnqClaim && caller == enq && !overtaken {
			overtaken = true
			q.Dequeue(deq) // burns the batch's first window
		}
	})
	q.EnqueueBatch(enq, vs)
	yield.Set(prev)
	if st := q.Stats(); st.SlowEnqs != 1 {
		t.Fatalf("burst sent %d values down the slow path, want 1: %+v", st.SlowEnqs, st)
	}
	drain()
	burst := q.Stats()
	q.EnqueueBatch(enq, vs)
	drain()
	refill := q.Stats()
	if refill.Allocated != burst.Allocated || refill.Dropped != 0 {
		t.Fatalf("refill after a helped burst allocated %d segments (dropped %d): burst %+v, refill %+v",
			refill.Allocated-burst.Allocated, refill.Dropped, burst, refill)
	}
}

// TestFrozenClaimWindow freezes a dequeuer between its claim FAA and the
// slot inspection while it holds a committed value. A second dequeuer
// must overtake it (taking the NEXT value — the frozen claim owns its
// slot exclusively), and the frozen dequeuer still receives its value on
// resume: both deliveries, no duplicates, no blocking.
func TestFrozenClaimWindow(t *testing.T) {
	const enq, frozen, overtaker = 0, 1, 2
	q := New[int64](3, 8)
	q.Enqueue(enq, 1)
	q.Enqueue(enq, 2)

	parked := make(chan struct{})
	resume := make(chan struct{})
	var once sync.Once
	prev := yield.Set(func(p yield.Point, caller, owner int) {
		if p == yield.RGDeqClaim && caller == frozen {
			once.Do(func() {
				close(parked)
				<-resume
			})
		}
	})
	defer yield.Set(prev)

	got := make(chan int64, 1)
	go func() {
		v, ok := q.Dequeue(frozen) // claims slot 0 (value 1), freezes
		if !ok {
			t.Error("frozen dequeuer came back empty")
		}
		got <- v
	}()
	<-parked

	// The overtaker claims slot 1 and takes value 2 — legal, because its
	// interval overlaps the frozen dequeue, which linearizes first (at
	// its earlier claim FAA).
	if v, ok := q.Dequeue(overtaker); !ok || v != 2 {
		t.Fatalf("overtaking dequeue = (%d,%v), want (2,true)", v, ok)
	}

	close(resume)
	select {
	case v := <-got:
		if v != 1 {
			t.Fatalf("frozen dequeuer got %d, want 1", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("frozen dequeuer never completed")
	}
	if _, ok := q.Dequeue(overtaker); ok {
		t.Fatal("queue not empty after both deliveries")
	}
	if st := q.Stats(); st.DeqBurns != 0 {
		t.Fatalf("burns during frozen-claim window: %+v", st)
	}
}

// TestBoundaryInstallRace races two enqueuers through the segment
// boundary: the victim overshoots, allocates a fresh segment, and parks
// just before the install CAS; a rival installs its own segment first.
// The victim's install must fail cleanly — the pristine loser segment
// goes back to the pool, not to the chain — and the victim's value
// lands in the rival's segment on retry.
func TestBoundaryInstallRace(t *testing.T) {
	const victim, rival = 0, 1
	q := New[int64](2, 2)
	q.Enqueue(rival, 1)
	q.Enqueue(rival, 2) // segment full: next enqueue overshoots

	parked := make(chan struct{})
	resume := make(chan struct{})
	var once sync.Once
	prev := yield.Set(func(p yield.Point, caller, owner int) {
		if p == yield.RGSegAdvance && caller == victim {
			once.Do(func() {
				close(parked)
				<-resume
			})
		}
	})
	defer yield.Set(prev)

	done := make(chan struct{})
	go func() {
		q.Enqueue(victim, 3) // overshoots, parks holding a fresh segment
		close(done)
	}()
	<-parked

	q.Enqueue(rival, 4) // installs the next segment and lands value 4

	close(resume)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("victim enqueuer never completed")
	}

	st := q.Stats()
	if st.Allocated != 3 {
		t.Fatalf("expected 3 allocations (root + two fresh), got %+v", st)
	}
	if st.Recycled+st.Dropped == 0 {
		t.Fatalf("losing segment neither recycled nor dropped: %+v", st)
	}
	if st.LiveSegments != 2 {
		t.Fatalf("chain length %d after one boundary, want 2: %+v", st.LiveSegments, st)
	}

	// FIFO prefix 1, 2 from the first segment; 3 and 4 raced for order in
	// the second.
	for _, want := range []int64{1, 2} {
		if v, ok := q.Dequeue(rival); !ok || v != want {
			t.Fatalf("drain = (%d,%v), want (%d,true)", v, ok, want)
		}
	}
	a, okA := q.Dequeue(rival)
	b, okB := q.Dequeue(rival)
	if !okA || !okB || (a != 3 && a != 4) || (b != 3 && b != 4) || a == b {
		t.Fatalf("raced tail drain = (%d,%v),(%d,%v), want {3,4}", a, okA, b, okB)
	}
	if _, ok := q.Dequeue(rival); ok {
		t.Fatal("queue not empty after drain")
	}
}

// TestHelpCompletesFrozenEnqueue is the tentpole's headline window: a
// slow-path enqueuer freezes AFTER publishing its ticket (the claimed
// slot is public) but BEFORE its reserve CAS. In PR 6 a dequeuer
// reaching that slot burned it and reported empty — the frozen thread's
// operation could be starved indefinitely. With helping, the dequeuer's
// entry help finishes the frozen enqueue from the ticket alone and the
// dequeue DELIVERS the frozen thread's value while it is still frozen.
func TestHelpCompletesFrozenEnqueue(t *testing.T) {
	const frozen, helper = 0, 1
	q := New[int64](2, 8, WithPatience(0))

	parked := make(chan struct{})
	resume := make(chan struct{})
	var once sync.Once
	prev := yield.Set(func(p yield.Point, caller, owner int) {
		if p == yield.RGHelpTicket && caller == frozen {
			once.Do(func() {
				close(parked)
				<-resume
			})
		}
	})
	defer yield.Set(prev)

	done := make(chan struct{})
	go func() {
		q.Enqueue(frozen, 42) // publishes record + ticket, then freezes
		close(done)
	}()
	<-parked

	// The frozen enqueue has not committed anything, yet its completion
	// is now public obligation: the helper's dequeue must return 42.
	if v, ok := q.Dequeue(helper); !ok || v != 42 {
		t.Fatalf("dequeue during helping window = (%d,%v), want (42,true)", v, ok)
	}

	close(resume)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("frozen enqueuer never completed after help")
	}

	// Exactly once: the helped value must not reappear.
	if v, ok := q.Dequeue(helper); ok {
		t.Fatalf("duplicate delivery after helped enqueue: %d", v)
	}
	st := q.Stats()
	if st.HelpFinalizes == 0 {
		t.Fatalf("no helper finalize recorded: %+v", st)
	}
}

// TestHelperReserveVsBurnCAS races the two CASes that can decide a
// ticketed slot: the slow enqueuer's reserve (empty -> reserved) against
// a dequeuer claimant's burn (empty -> unsafe). The enqueuer freezes in
// the unhelpable stretch (claim taken, ticket not yet public) so the
// claimant's entry help skips its record; the claimant then claims the
// SAME slot and freezes before its burn CAS, while the slot is still
// empty. One release drops both into the race. Either CAS may win: a
// winning burn sends the enqueuer to a fresh claim, a winning reserve
// makes the claimant resolve the reservation and consume — in all
// interleavings the value is delivered exactly once.
func TestHelperReserveVsBurnCAS(t *testing.T) {
	const claimant, enq = 0, 1
	q := New[int64](2, 8, WithPatience(0))

	claimParked := make(chan struct{})
	enqParked := make(chan struct{})
	resume := make(chan struct{})
	var claimOnce, enqOnce sync.Once
	prev := yield.Set(func(p yield.Point, caller, owner int) {
		switch {
		case p == yield.RGHelpClaim && caller == enq:
			enqOnce.Do(func() {
				close(enqParked)
				<-resume
			})
		case p == yield.RGDeqClaim && caller == claimant:
			claimOnce.Do(func() {
				close(claimParked)
				<-resume
			})
		}
	})
	defer yield.Set(prev)

	got := make(chan int64, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		// Claims slot 0 (enqIdx -> 1), freezes before writing the value
		// or publishing the ticket: the claim exists but is invisible.
		q.Enqueue(enq, 42)
	}()
	<-enqParked
	go func() {
		defer wg.Done()
		// Entry help finds the enqueuer's record pending but ticketless
		// and skips it; the dequeue then claims the same slot 0 (deqIdx
		// -> 1, legal since enqIdx is 1), sees it empty, and freezes
		// before the burn CAS.
		if v, ok := q.Dequeue(claimant); ok {
			got <- v
		}
	}()
	<-claimParked

	close(resume) // burn CAS vs reserve CAS, live
	wg.Wait()

	// Drain whatever the claimant didn't take.
	for {
		v, ok := q.Dequeue(claimant)
		if !ok {
			break
		}
		got <- v
	}
	close(got)
	n := 0
	for v := range got {
		if v != 42 {
			t.Fatalf("delivered %d, want only 42", v)
		}
		n++
	}
	if n != 1 {
		t.Fatalf("value delivered %d times, want exactly once", n)
	}
}

// TestTicketPinsSegmentFromRecycling is the publish-vs-retire window: a
// slow enqueuer freezes with a published ticket naming a slot of the
// root segment; traffic then drives the queue past that segment so it
// retires. The frozen owner still announces the segment its live ticket
// names, so the retirer must DROP it to the GC rather than reset it
// under the owner's pending reserve CAS — and the frozen thread's value
// must still be delivered exactly once.
func TestTicketPinsSegmentFromRecycling(t *testing.T) {
	const frozen, driver = 0, 1
	q := New[int64](2, 2, WithPatience(0))

	parked := make(chan struct{})
	resume := make(chan struct{})
	var once sync.Once
	prev := yield.Set(func(p yield.Point, caller, owner int) {
		if p == yield.RGHelpTicket && caller == frozen {
			once.Do(func() {
				close(parked)
				<-resume
			})
		}
	})
	defer yield.Set(prev)

	done := make(chan struct{})
	go func() {
		q.Enqueue(frozen, 99) // ticket names slot 0 of the root segment
		close(done)
	}()
	<-parked

	// The driver's first enqueue helps the frozen one (entry help), then
	// fills the rest of the root segment and crosses the boundary.
	for v := int64(0); v < 4; v++ {
		q.Enqueue(driver, v)
	}
	// Drain the root segment (99 first — the frozen claim is slot 0) and
	// cross the head boundary, retiring the announced root segment.
	if v, ok := q.Dequeue(driver); !ok || v != 99 {
		t.Fatalf("helped value: got (%d,%v), want (99,true)", v, ok)
	}
	for i := 0; i < 3; i++ {
		if _, ok := q.Dequeue(driver); !ok {
			t.Fatalf("drain %d came back empty", i)
		}
	}

	st := q.Stats()
	if st.Dropped == 0 {
		t.Fatalf("announced segment was not dropped at retirement: %+v", st)
	}
	if st.Recycled != 0 {
		t.Fatalf("a segment recycled while tickets could be live: %+v", st)
	}

	close(resume)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("frozen enqueuer never completed")
	}
	// Exactly once across the drop: one value left (driver's 4th), then empty.
	if _, ok := q.Dequeue(driver); !ok {
		t.Fatal("last driver value missing")
	}
	if v, ok := q.Dequeue(driver); ok {
		t.Fatalf("duplicate delivery after announced drop: %d", v)
	}
}

// stop is one planned suspension of a parker: the thread parks on its
// arrival there until release is closed.
type stop struct {
	parked, release chan struct{}
}

// wait blocks until the planned thread is parked at the stop.
func (s *stop) wait(t *testing.T, what string) {
	t.Helper()
	select {
	case <-s.parked:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s never parked", what)
	}
}

// within receives from ch, failing the test if nothing arrives in time.
func within[V any](t *testing.T, ch <-chan V, what string) V {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("%s never completed", what)
		panic("unreachable")
	}
}

// parker is a yield hook that suspends chosen threads at chosen
// arrivals: a plan entry (p, caller, n) parks caller at its n-th
// arrival at point p. Every other arrival passes through.
type parker struct {
	mu   sync.Mutex
	hits map[[2]int]int
	plan map[[3]int]*stop
}

// newParker installs a parker for the test's duration; cleanup releases
// any thread still parked, so a failed test leaves no goroutine stuck.
func newParker(t *testing.T) *parker {
	pk := &parker{hits: map[[2]int]int{}, plan: map[[3]int]*stop{}}
	prev := yield.Set(pk.hook)
	t.Cleanup(func() {
		yield.Set(prev)
		pk.mu.Lock()
		defer pk.mu.Unlock()
		for _, s := range pk.plan {
			select {
			case <-s.release:
			default:
				close(s.release)
			}
		}
	})
	return pk
}

// at plans a suspension of caller at its n-th arrival at p.
func (pk *parker) at(p yield.Point, caller, n int) *stop {
	s := &stop{parked: make(chan struct{}), release: make(chan struct{})}
	pk.mu.Lock()
	pk.plan[[3]int{int(p), caller, n}] = s
	pk.mu.Unlock()
	return s
}

func (pk *parker) hook(p yield.Point, caller, owner int) {
	pk.mu.Lock()
	k := [2]int{int(p), caller}
	pk.hits[k]++
	s := pk.plan[[3]int{int(p), caller, pk.hits[k]}]
	pk.mu.Unlock()
	if s != nil {
		close(s.parked)
		<-s.release
	}
}

// TestStaleTicketHelperAfterRecycle parks a helper between its read of
// a slow operation's ticket and its announcement of the ticket's
// segment (RGHelpScan). While it is parked the ticket dies, the segment
// retires unannounced, is recycled and comes back as the tail with the
// ticket's slot in a new life: empty again, which a stale reserve CAS
// would take, or holding a new value, which a stale dequeue finalize
// would take. On resume the helper's re-validation must find the ticket
// dead and leave the slot alone, and every value must still leave in
// FIFO order, exactly once. The ticket dies two ways: the owner
// completes (its record leaves the request), or the ticket's slot is
// burned — by a dequeuer under a slow enqueue's ticket, by the owner
// itself under a slow dequeue's — and the owner, still pending, moves on
// to a claim in a later segment; then its kill of the ticket is what
// the helper must see.
func TestStaleTicketHelperAfterRecycle(t *testing.T) {
	// finish collects what is left in the queue and checks the whole
	// delivery order against want.
	finish := func(t *testing.T, q *Queue[int64], tid int, got, want []int64) {
		t.Helper()
		for {
			v, ok := q.Dequeue(tid)
			if !ok {
				break
			}
			got = append(got, v)
		}
		if len(got) != len(want) {
			t.Fatalf("delivered %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("delivered %v, want %v", got, want)
			}
		}
	}

	t.Run("owner-completes", func(t *testing.T) {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		const owner, helper = 0, 1
		q := New[int64](2, 4, WithPatience(0))
		s0 := q.head.Load()
		q.Enqueue(owner, 1)
		q.Enqueue(owner, 2)
		pk := newParker(t)
		ownerTicket := pk.at(yield.RGHelpTicket, owner, 1)
		helperScan := pk.at(yield.RGHelpScan, helper, 1)
		ownerDone := make(chan struct{})
		go func() {
			q.Enqueue(owner, 100) // ticket names slot 2 of s0
			close(ownerDone)
		}()
		ownerTicket.wait(t, "owner at its ticket")
		helperGot := make(chan int64, 1)
		go func() {
			v, _ := q.Dequeue(helper) // entry help reads the owner's ticket
			helperGot <- v
		}()
		helperScan.wait(t, "helper after its ticket read")
		close(ownerTicket.release)
		within(t, ownerDone, "owner")

		// The request is closed. Retire s0 (the owner's next operations
		// move its announcement on), recycle it, and refill it as the
		// tail up to just before the ticket's slot.
		var got []int64
		q.Enqueue(owner, 3)
		q.Enqueue(owner, 4) // crosses into s1
		for i := 0; i < 5; i++ {
			v, ok := q.Dequeue(owner) // the fifth retires s0
			if !ok {
				t.Fatalf("dequeue %d came back empty", i)
			}
			got = append(got, v)
		}
		for v := int64(5); v <= 9; v++ {
			q.Enqueue(owner, v) // 8 and 9 land in slots 0 and 1 of the next segment
		}
		reused := q.tail.Load() == s0
		if !reused && !raceEnabled {
			t.Fatalf("retired segment was not reused as the tail: %+v", q.Stats())
		}

		close(helperScan.release)
		got = append(got, within(t, helperGot, "helper"))
		if reused && s0.slots[2].word.Load() != slotEmpty {
			t.Fatalf("stale helper changed a recycled slot: word %#x", s0.slots[2].word.Load())
		}
		q.Enqueue(owner, 10)
		finish(t, q, owner, got, []int64{1, 2, 100, 3, 4, 5, 6, 7, 8, 9, 10})
	})

	t.Run("enq-ticket-burned", func(t *testing.T) {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		const owner, helper, driver = 0, 1, 2
		q := New[int64](3, 4, WithPatience(0))
		pk := newParker(t)
		ownerClaim := pk.at(yield.RGHelpClaim, owner, 1)
		ownerTicket := pk.at(yield.RGHelpTicket, owner, 1)
		ownerReclaim := pk.at(yield.RGHelpClaim, owner, 2)
		helperScan := pk.at(yield.RGHelpScan, helper, 1)

		s0 := q.head.Load()
		q.Enqueue(driver, 1)
		q.Enqueue(driver, 2)
		ownerDone := make(chan struct{})
		go func() {
			q.Enqueue(owner, 100) // first claim: slot 2 of s0
			close(ownerDone)
		}()
		ownerClaim.wait(t, "owner after its claim")

		// The owner's claim is not public yet, so the driver's entry
		// help passes it by, and its third dequeue claims slot 2 while
		// it is empty: a burn, and an empty result.
		var got []int64
		for i := 0; i < 2; i++ {
			v, ok := q.Dequeue(driver)
			if !ok {
				t.Fatalf("dequeue %d came back empty", i)
			}
			got = append(got, v)
		}
		if v, ok := q.Dequeue(driver); ok {
			t.Fatalf("dequeue of the owner's unpublished claim = (%d,true), want empty", v)
		}

		// The owner publishes its ticket on the burned slot; the helper
		// reads it while it is still live.
		close(ownerClaim.release)
		ownerTicket.wait(t, "owner at its ticket")
		helperGot := make(chan int64, 1)
		go func() {
			v, _ := q.Dequeue(helper)
			helperGot <- v
		}()
		helperScan.wait(t, "helper after its ticket read")

		// Fill s0 and cross into s1, so the owner's next claim lands
		// there; the owner's reserve then fails on the burned slot and
		// it re-claims, still pending, announcing s1.
		q.Enqueue(driver, 3)
		q.Enqueue(driver, 4)
		close(ownerTicket.release)
		ownerReclaim.wait(t, "owner at its second claim")

		// Retire s0 (nobody announces it), then fill s1 past its end so
		// s0 comes back from the pool as the tail, refilled up to just
		// before the dead ticket's slot.
		for i := 0; i < 2; i++ {
			v, ok := q.Dequeue(driver) // the second retires s0
			if !ok {
				t.Fatalf("dequeue %d came back empty", i)
			}
			got = append(got, v)
		}
		for v := int64(5); v <= 8; v++ {
			q.Enqueue(driver, v) // 7 and 8 land in slots 0 and 1 of the next segment
		}
		reused := q.tail.Load() == s0
		if !reused && !raceEnabled {
			t.Fatalf("retired segment was not reused as the tail: %+v", q.Stats())
		}

		close(helperScan.release)
		got = append(got, within(t, helperGot, "helper"))
		if reused && s0.slots[2].word.Load() != slotEmpty {
			t.Fatalf("stale helper changed a recycled slot: word %#x", s0.slots[2].word.Load())
		}
		close(ownerReclaim.release)
		within(t, ownerDone, "owner")
		finish(t, q, driver, got, []int64{1, 2, 3, 4, 5, 6, 7, 8, 100})
	})

	t.Run("deq-ticket-burned", func(t *testing.T) {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		const owner, helper, enq, driver = 0, 1, 2, 3
		q := New[int64](4, 4, WithPatience(0))
		s0 := q.head.Load()
		for v := int64(1); v <= 3; v++ {
			q.Enqueue(driver, v)
		}
		pk := newParker(t)
		enqClaim := pk.at(yield.RGHelpClaim, enq, 1)
		ownerTicket := pk.at(yield.RGHelpTicket, owner, 1)
		ownerRetry := pk.at(yield.RGRetry, owner, 2)
		ownerReclaim := pk.at(yield.RGHelpClaim, owner, 2)
		helperScan := pk.at(yield.RGHelpScan, helper, 1)

		// A slow enqueuer claims slot 3 of s0 and parks before writing
		// it; the driver crosses into s1 and drains slots 0-2, then
		// moves its announcement to s1.
		enqDone := make(chan struct{})
		go func() {
			q.Enqueue(enq, 50)
			close(enqDone)
		}()
		enqClaim.wait(t, "enqueuer after its claim")
		q.Enqueue(driver, 4)
		var got []int64
		for i := 0; i < 3; i++ {
			v, ok := q.Dequeue(driver)
			if !ok {
				t.Fatalf("dequeue %d came back empty", i)
			}
			got = append(got, v)
		}
		q.Enqueue(driver, 5)

		// The owner's slow dequeue claims the enqueuer's empty slot 3 and
		// publishes its ticket; the helper reads it while it is live.
		ownerGot := make(chan int64, 1)
		go func() {
			v, _ := q.Dequeue(owner)
			ownerGot <- v
		}()
		ownerTicket.wait(t, "owner at its ticket")
		helperGot := make(chan int64, 1)
		go func() {
			v, _ := q.Dequeue(helper)
			helperGot <- v
		}()
		helperScan.wait(t, "helper after its ticket read")

		// The owner burns its slot (more claims follow it, so that is no
		// empty result) and re-claims, still pending. Once the enqueuer
		// has left s0, the owner retires s0 and parks at its claim in s1.
		close(ownerTicket.release)
		ownerRetry.wait(t, "owner before its second attempt")
		close(enqClaim.release)
		within(t, enqDone, "enqueuer")
		close(ownerRetry.release)
		ownerReclaim.wait(t, "owner at its second claim")

		// Fill s1 so s0 comes back from the pool as the tail, refilled
		// through the dead ticket's slot: slot 3 now holds 10.
		for v := int64(6); v <= 10; v++ {
			q.Enqueue(driver, v)
		}
		reused := q.tail.Load() == s0
		if !reused && !raceEnabled {
			t.Fatalf("retired segment was not reused as the tail: %+v", q.Stats())
		}

		close(helperScan.release)
		hv := within(t, helperGot, "helper")
		if reused && s0.slots[3].word.Load() != slotCommitted {
			t.Fatalf("stale helper took a recycled slot's value: word %#x", s0.slots[3].word.Load())
		}
		close(ownerReclaim.release)
		got = append(got, within(t, ownerGot, "owner"), hv)
		finish(t, q, driver, got, []int64{1, 2, 3, 4, 5, 50, 6, 7, 8, 9, 10})
	})
}

// TestHelperPinDuringRetireScan covers a helper that reaches the
// owner's enqueue ticket while a retire scan of the ticket's segment is
// under way. The retirer (the driver) marks the segment, reads the
// helper's announcement slot and parks there (RGRetireScan); the owner,
// whose slot was burned, parks at its ticket, so the ticket stays live.
// The scan reads announcements in index order and is not a snapshot: if
// the helper announces now and the owner then kills its ticket and
// enqueues into the next segment, the scan's read of the owner's slot
// misses too, and the segment is recycled and refilled as the tail with
// the dead ticket's slot empty in its new life. The helper read the
// ticket before the mark (and parked before announcing) or after it;
// either way, once it announced, the ticket check alone would pass, and
// a helper let through (it parks at RGHelpPinned) would reserve that
// slot on resume, committing a value nobody enqueued. It must be turned
// away, or, if it pinned the segment before the retire began, the
// retirer must drop the segment instead of recycling it. Every value
// must leave in FIFO order, exactly once.
func TestHelperPinDuringRetireScan(t *testing.T) {
	for _, tc := range []struct {
		name string
		// start is when the helper reads the ticket: before the retiring
		// dequeue (pinned: it runs on to RGHelpPinned; scan: it parks at
		// RGHelpScan, before announcing, until the retirer parks) or
		// after the retirer parked (late).
		start string
	}{
		{"pinned-before-retire", "pinned"},
		{"ticket-read-before-mark", "scan"},
		{"ticket-read-after-mark", "late"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			const helper, owner, driver = 0, 1, 2
			q := New[int64](3, 4, WithPatience(0))
			s0 := q.head.Load()
			pk := newParker(t)
			ownerClaim := pk.at(yield.RGHelpClaim, owner, 1)
			ownerTicket := pk.at(yield.RGHelpTicket, owner, 1)
			helperScan := pk.at(yield.RGHelpScan, helper, 1)
			helperPinned := pk.at(yield.RGHelpPinned, helper, 1)
			retireScan := pk.at(yield.RGRetireScan, driver, 1)

			q.Enqueue(driver, 1)
			q.Enqueue(driver, 2)
			ownerDone := make(chan struct{})
			go func() {
				q.Enqueue(owner, 100) // first claim: slot 2 of s0
				close(ownerDone)
			}()
			ownerClaim.wait(t, "owner after its claim")
			// The claim is not public yet: the driver's third dequeue
			// burns slot 2 and reports empty.
			var got []int64
			for i := 0; i < 2; i++ {
				v, ok := q.Dequeue(driver)
				if !ok {
					t.Fatalf("dequeue %d came back empty", i)
				}
				got = append(got, v)
			}
			if v, ok := q.Dequeue(driver); ok {
				t.Fatalf("dequeue of the owner's unpublished claim = (%d,true), want empty", v)
			}
			// The owner publishes its ticket on the burned slot and parks
			// before its reserve CAS, so the ticket stays live.
			close(ownerClaim.release)
			ownerTicket.wait(t, "owner at its ticket")

			helperGot := make(chan int64, 1)
			startHelper := func() {
				go func() {
					v, _ := q.Dequeue(helper) // entry help reads the owner's ticket
					helperGot <- v
				}()
			}
			switch tc.start {
			case "pinned":
				close(helperScan.release)
				startHelper()
				helperPinned.wait(t, "helper with s0 pinned")
			case "scan":
				startHelper()
				helperScan.wait(t, "helper after its ticket read")
			}

			// Fill s0 and cross into s1, drain slot 3, and let the next
			// dequeue win the head swing: it marks s0 retired and parks
			// after reading the helper's announcement slot.
			q.Enqueue(driver, 3)
			q.Enqueue(driver, 4)
			v, ok := q.Dequeue(driver)
			if !ok {
				t.Fatal("dequeue of 3 came back empty")
			}
			got = append(got, v)
			driverGot := make(chan int64, 1)
			go func() {
				v, _ := q.Dequeue(driver)
				driverGot <- v
			}()
			retireScan.wait(t, "retirer after reading the helper's slot")

			// The helper announces s0 while the ticket is live. A helper
			// turned away goes on to its own dequeue and takes 4 from s1.
			pinned := tc.start == "pinned"
			if !pinned {
				switch tc.start {
				case "scan":
					close(helperScan.release)
				case "late":
					close(helperScan.release)
					startHelper()
				}
				select {
				case <-helperPinned.parked:
					pinned = true
				case v := <-helperGot:
					got = append(got, v)
				case <-time.After(10 * time.Second):
					t.Fatal("helper neither pinned s0 nor completed")
				}
			}

			// The owner's reserve fails on the burned slot: it kills its
			// ticket and enqueues 100 into s1, moving its announcement.
			// Then the scan reads the owner's slot and finishes.
			close(ownerTicket.release)
			within(t, ownerDone, "owner")
			close(retireScan.release)
			dv := within(t, driverGot, "retiring dequeue")
			if pinned {
				got = append(got, dv)
			}
			st := q.Stats()
			if tc.start == "pinned" && (st.Dropped != 1 || st.Recycled != 0) {
				t.Fatalf("segment pinned by the helper was not dropped: %+v", st)
			}
			// Fill s1 so a recycled s0 comes back from the pool as the
			// tail, refilled up to just before the dead ticket's slot.
			for v := int64(5); v <= 8; v++ {
				q.Enqueue(driver, v) // 7 and 8 land in slots 0 and 1 of the next segment
			}
			reused := q.tail.Load() == s0
			if tc.start != "pinned" && !reused && !raceEnabled {
				t.Fatalf("retired segment was not reused as the tail: %+v", q.Stats())
			}

			close(helperPinned.release)
			if pinned {
				got = append(got, within(t, helperGot, "helper"))
			} else {
				got = append(got, dv)
			}
			if reused && s0.slots[2].word.Load() != slotEmpty {
				t.Fatalf("helper changed a recycled slot: word %#x", s0.slots[2].word.Load())
			}
			q.Enqueue(driver, 9)
			for {
				v, ok := q.Dequeue(driver)
				if !ok {
					break
				}
				got = append(got, v)
			}
			want := []int64{1, 2, 3, 4, 100, 5, 6, 7, 8, 9}
			if len(got) != len(want) {
				t.Fatalf("delivered %v, want %v", got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("delivered %v, want %v", got, want)
				}
			}
		})
	}
}

// TestPromoteCommitsEveryReservation covers the three promotes of a
// slow enqueue's reserved slot, each from the exact reserved word its
// caller saw or built. The owner, a helper acting on the ticket, or the
// slot's dequeue claimant may reserve; the request is decided by the
// finalize CAS; whichever of the three promotes runs must then turn the
// reservation into a committed value, whoever made it.
//
//   - owner-promotes-helper-reserve: a helper reserves the frozen
//     owner's slot and parks before its finalize. The owner resumes,
//     finalizes and returns, and its slot must already be committed:
//     the owner's promote acts on the helper's reservation, so the
//     helper must have reserved with the owner's own word.
//   - helper-promotes: the owner stays frozen at its ticket while an
//     enqueuer's entry help reserves, finalizes and promotes the slot;
//     when that enqueue returns both values are committed.
//   - claimant-promotes: the owner freezes after its own reserve, and a
//     slow dequeue that claims the slot finishes the owner's enqueue
//     and takes its value. Its promote is the only one that can run.
func TestPromoteCommitsEveryReservation(t *testing.T) {
	t.Run("owner-promotes-helper-reserve", func(t *testing.T) {
		const owner, helper = 0, 1
		q := New[int64](2, 4, WithPatience(0))
		sl := &q.tail.Load().slots[0]
		pk := newParker(t)
		ownerTicket := pk.at(yield.RGHelpTicket, owner, 1)
		helperFinalize := pk.at(yield.RGHelpFinalize, helper, 1)
		ownerDone := make(chan struct{})
		go func() {
			q.Enqueue(owner, 42) // ticket names slot 0
			close(ownerDone)
		}()
		ownerTicket.wait(t, "owner at its ticket")
		helperDone := make(chan struct{})
		go func() {
			q.Enqueue(helper, 7) // entry help reserves slot 0, then parks
			close(helperDone)
		}()
		helperFinalize.wait(t, "helper after its reserve")
		if w := sl.word.Load(); w != reservedWord(owner, q.recs[owner].seq) {
			t.Fatalf("helper reserved with %#x, want the owner's word %#x", w, reservedWord(owner, q.recs[owner].seq))
		}
		close(ownerTicket.release)
		within(t, ownerDone, "owner")
		if w := sl.word.Load(); w != slotCommitted {
			t.Fatalf("owner returned with its slot at %#x, want committed", w)
		}
		close(helperFinalize.release)
		within(t, helperDone, "helper")
		drainExactly(t, q, 0, 42, 7)
	})

	t.Run("helper-promotes", func(t *testing.T) {
		const owner, helper = 0, 1
		q := New[int64](2, 4, WithPatience(0))
		sl := &q.tail.Load().slots[0]
		pk := newParker(t)
		ownerTicket := pk.at(yield.RGHelpTicket, owner, 1)
		ownerDone := make(chan struct{})
		go func() {
			q.Enqueue(owner, 42)
			close(ownerDone)
		}()
		ownerTicket.wait(t, "owner at its ticket")
		q.Enqueue(helper, 7) // entry help decides and promotes the owner's enqueue
		if w := sl.word.Load(); w != slotCommitted || q.Len() != 2 {
			t.Fatalf("after the helped enqueue: owner's slot %#x, Len %d; want committed, 2", w, q.Len())
		}
		close(ownerTicket.release)
		within(t, ownerDone, "owner")
		drainExactly(t, q, 0, 42, 7)
	})

	t.Run("claimant-promotes", func(t *testing.T) {
		const owner, claimant = 0, 1
		q := New[int64](2, 4, WithPatience(0))
		pk := newParker(t)
		claimantRetry := pk.at(yield.RGRetry, claimant, 1)
		ownerFinalize := pk.at(yield.RGHelpFinalize, owner, 1)
		// The claimant opens its request first and parks before its
		// claim, so it has no ticket for the owner's entry help to find.
		got := make(chan int64, 1)
		go func() {
			v, ok := q.Dequeue(claimant)
			if !ok {
				t.Error("claimant came back empty")
			}
			got <- v
		}()
		claimantRetry.wait(t, "claimant before its claim")
		ownerDone := make(chan struct{})
		go func() {
			q.Enqueue(owner, 42) // reserves slot 0, parks before its finalize
			close(ownerDone)
		}()
		ownerFinalize.wait(t, "owner after its reserve")
		close(claimantRetry.release)
		if v := within(t, got, "claimant"); v != 42 {
			t.Fatalf("claimant took %d, want 42", v)
		}
		close(ownerFinalize.release)
		within(t, ownerDone, "owner")
		drainExactly(t, q, 0)
	})
}

// drainExactly dequeues until empty and checks the values against want.
func drainExactly(t *testing.T, q *Queue[int64], tid int, want ...int64) {
	t.Helper()
	for _, w := range want {
		if v, ok := q.Dequeue(tid); !ok || v != w {
			t.Fatalf("drain = (%d,%v), want (%d,true)", v, ok, w)
		}
	}
	if v, ok := q.Dequeue(tid); ok {
		t.Fatalf("drain found %d after %v", v, want)
	}
}
