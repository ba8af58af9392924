package ring

import (
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
// retires. Reset-and-recycle would rearm the empty state a stale
// helper's reserve CAS must never find, so the retirer must DROP the
// ticketed segment to the GC — and the frozen thread's value must still
// be delivered exactly once.
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
	// cross the head boundary, retiring the ticketed root segment.
	if v, ok := q.Dequeue(driver); !ok || v != 99 {
		t.Fatalf("helped value: got (%d,%v), want (99,true)", v, ok)
	}
	for i := 0; i < 3; i++ {
		if _, ok := q.Dequeue(driver); !ok {
			t.Fatalf("drain %d came back empty", i)
		}
	}

	st := q.Stats()
	if st.TicketDrops == 0 {
		t.Fatalf("ticketed segment was not dropped at retirement: %+v", st)
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
		t.Fatalf("duplicate delivery after ticketed drop: %d", v)
	}
}
