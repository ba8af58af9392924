package sharded

import (
	"sync"
	"testing"
	"time"

	"wfq/internal/yield"
)

// TestEnqueueTicketHandoffWindow forces the enqueue-side handoff race the
// package doc reasons about: an enqueuer that performed its ticket
// fetch-and-add and stalled before the shard append. The ticket is spoken
// for, but no element is visible, so a dequeuer dispatched to the same
// shard legitimately reports empty — and the whole frontend must stay
// unblocked (no other operation waits on the parked enqueuer). The value
// surfaces for the next same-residue dequeue ticket after the append.
func TestEnqueueTicketHandoffWindow(t *testing.T) {
	const enq, deq = 0, 1
	q := newUniform[int64](2, 2)

	parked := make(chan struct{})
	resume := make(chan struct{})
	var once sync.Once
	prev := yield.Set(func(p yield.Point, caller, owner int) {
		if p == yield.SHEnqTicket && caller == enq {
			once.Do(func() {
				if owner != 0 {
					t.Errorf("ticket 0 dispatched to shard %d", owner)
				}
				close(parked)
				<-resume
			})
		}
	})
	defer yield.Set(prev)

	done := make(chan struct{})
	go func() {
		q.Enqueue(enq, 42) // ticket 0 -> shard 0; parks before the append
		close(done)
	}()
	<-parked

	// The dequeuer's ticket 0 names shard 0 — the enqueuer's shard — but
	// the append has not happened: empty is the correct answer, and the
	// probe must return despite the parked enqueuer (wait-freedom of the
	// dispatch: no cross-shard rescan, no waiting on the ticket holder).
	if _, ok, ticket := q.DequeueTicket(deq); ok || ticket != 0 {
		t.Fatalf("(ok=%v,t%d), want empty with ticket 0", ok, ticket)
	}
	// Ticket 1 probes shard 1, also empty.
	if _, ok, ticket := q.DequeueTicket(deq); ok || ticket != 1 {
		t.Fatalf("(ok=%v,t%d), want empty with ticket 1", ok, ticket)
	}

	close(resume)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("enqueuer never completed")
	}

	// Ticket 2 revisits shard 0 and finds the handed-off value.
	if v, ok, ticket := q.DequeueTicket(deq); !ok || v != 42 || ticket != 2 {
		t.Fatalf("(%d,%v,t%d), want (42,true,t2)", v, ok, ticket)
	}
	st := q.DispatchStats()
	if st.EnqTickets != 1 || st.DeqTickets != 3 || st.EmptyClaims != 2 {
		t.Fatalf("stats=%+v", st)
	}
}

// TestDequeueTicketOvertakeWindow forces the dequeue-side window: a
// dequeuer that performed its ticket fetch-and-add and stalled before the
// shard pop. Later tickets — on other shards AND on the same residue —
// overtake it and may take the value the stalled ticket "pointed at".
// That reordering is legal under the bag-of-FIFOs spec because the
// stalled dequeue's interval overlaps the overtakers'; the per-shard
// subhistory stays FIFO-linearizable. The stalled dequeue must still
// complete with the shard's then-current head once resumed.
func TestDequeueTicketOvertakeWindow(t *testing.T) {
	const d1, d2, d3, enq = 1, 2, 3, 0
	q := newUniform[int64](4, 2)
	q.Enqueue(enq, 10) // ticket 0 -> shard 0
	q.Enqueue(enq, 20) // ticket 1 -> shard 1
	q.Enqueue(enq, 30) // ticket 2 -> shard 0

	parked := make(chan struct{})
	resume := make(chan struct{})
	var once sync.Once
	prev := yield.Set(func(p yield.Point, caller, owner int) {
		if p == yield.SHDeqTicket && caller == d1 {
			once.Do(func() {
				if owner != 0 {
					t.Errorf("ticket 0 dispatched to shard %d", owner)
				}
				close(parked)
				<-resume
			})
		}
	})
	defer yield.Set(prev)

	d1Got := make(chan int64, 1)
	go func() {
		v, ok := q.Dequeue(d1) // ticket 0 -> shard 0; parks before the pop
		if !ok {
			t.Error("stalled dequeue found its shard empty")
		}
		d1Got <- v
	}()
	<-parked

	// d2's ticket 1 names shard 1: unaffected by the stalled d1.
	if v, ok, ticket := q.DequeueTicket(d2); !ok || v != 20 || ticket != 1 {
		t.Fatalf("(%d,%v,t%d), want (20,true,t1)", v, ok, ticket)
	}
	// d3's ticket 2 names shard 0 — the SAME shard d1 is stalled on — and
	// overtakes it inside the shard, taking the head value 10.
	if v, ok, ticket := q.DequeueTicket(d3); !ok || v != 10 || ticket != 2 {
		t.Fatalf("(%d,%v,t%d), want (10,true,t2)", v, ok, ticket)
	}

	// The resumed d1 pops shard 0's remaining head: 30. Earlier ticket,
	// later value — exactly the overtake the spec permits.
	close(resume)
	select {
	case v := <-d1Got:
		if v != 30 {
			t.Fatalf("stalled dequeue got %d, want 30", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stalled dequeue never completed")
	}
	if q.Len() != 0 {
		t.Fatalf("residual Len=%d", q.Len())
	}
}
