package waiter

import (
	"context"
	"errors"
	"testing"
	"time"

	"wfq/internal/yield"
)

// stallAt parks the consumer goroutine (tid) the first time it reaches
// point p, reporting arrival on arrived and resuming on release. Other
// points and tids pass through.
func stallAt(t *testing.T, p yield.Point, tid int) (arrived, release chan struct{}, undo func()) {
	t.Helper()
	arrived = make(chan struct{})
	release = make(chan struct{})
	fired := false
	prev := yield.Set(func(pt yield.Point, caller, _ int) {
		if pt == p && caller == tid && !fired {
			fired = true
			arrived <- struct{}{}
			<-release
		}
	})
	undo = func() { yield.Set(prev) }
	return arrived, release, undo
}

// TestWakeRacesPark drives the exact interleaving the epoch-channel
// design exists for: the consumer has passed its under-lock recheck and
// stands right before the parking select (WQBeforePark) when the
// producer publishes and notifies. The notify must not be lost — the
// consumer captured this epoch's channel under the same lock the
// broadcast closes it under, so the select falls through immediately.
func TestWakeRacesPark(t *testing.T) {
	const consumer, producer = 0, 1
	arrived, release, undo := stallAt(t, yield.WQBeforePark, consumer)
	defer undo()

	g := NewGate(2)
	src := &chanSource{}
	got := make(chan int, 1)
	go func() {
		v, err := DequeueCtx[int](context.Background(), g, src, nil, consumer, 1, 1)
		if err != nil {
			t.Errorf("DequeueCtx: %v", err)
		}
		got <- v
	}()
	<-arrived // consumer is between recheck and select

	// Producer: publish, then notify (waiters==1, so it broadcasts).
	if !g.Enter(producer) {
		t.Fatal("enter failed")
	}
	src.push(5)
	g.Exit(producer)
	g.Notify(producer)

	close(release) // let the consumer run into the select
	select {
	case v := <-got:
		if v != 5 {
			t.Fatalf("got %d", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("wakeup lost across the recheck/park window")
	}
}

// TestCloseRacesPark stalls the consumer in the same pre-select window
// while Close runs to completion; the close broadcast must reach the
// consumer's captured channel so it wakes into the drain and returns
// ErrClosed instead of sleeping on a closed empty queue forever.
func TestCloseRacesPark(t *testing.T) {
	const consumer = 0
	arrived, release, undo := stallAt(t, yield.WQBeforePark, consumer)
	defer undo()

	g := NewGate(1)
	src := &chanSource{}
	done := make(chan error, 1)
	go func() {
		_, err := DequeueCtx[int](context.Background(), g, src, nil, consumer, 1, 1)
		done <- err
	}()
	<-arrived
	if err := g.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	close(release)
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("got %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("close broadcast lost across the recheck/park window")
	}
}

// TestNotifyRacesRecheck stalls the consumer at WQPrepare — registered,
// key in hand, recheck not yet run — while the producer publishes and
// notifies. Whichever leg catches it (the recheck finding the element,
// or the seq bump voiding the key), the consumer must return the
// element without a second notify.
func TestNotifyRacesRecheck(t *testing.T) {
	const consumer, producer = 0, 1
	arrived, release, undo := stallAt(t, yield.WQPrepare, consumer)
	defer undo()

	g := NewGate(2)
	src := &chanSource{}
	got := make(chan int, 1)
	go func() {
		v, err := DequeueCtx[int](context.Background(), g, src, nil, consumer, 1, 1)
		if err != nil {
			t.Errorf("DequeueCtx: %v", err)
		}
		got <- v
	}()
	<-arrived

	if !g.Enter(producer) {
		t.Fatal("enter failed")
	}
	src.push(11)
	g.Exit(producer)
	g.Notify(producer)

	close(release)
	select {
	case v := <-got:
		if v != 11 {
			t.Fatalf("got %d", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("element published during the register/recheck window was lost")
	}
}

// TestCloseRacesPrepare is TestNotifyRacesRecheck's close-side twin:
// Close completes while the consumer stands between registration and
// recheck. The closed check after the recheck (or the broadcast's seq
// bump) must divert it into the drain.
func TestCloseRacesPrepare(t *testing.T) {
	const consumer = 0
	arrived, release, undo := stallAt(t, yield.WQPrepare, consumer)
	defer undo()

	g := NewGate(1)
	src := &chanSource{}
	done := make(chan error, 1)
	go func() {
		_, err := DequeueCtx[int](context.Background(), g, src, nil, consumer, 1, 1)
		done <- err
	}()
	<-arrived
	if err := g.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	close(release)
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("got %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("close during the register/recheck window was lost")
	}
}

// TestCancelledWaiterDrainsRacedToken stalls a waiter at WQBeforePark —
// its channel listed — while its context is cancelled and a broadcast
// sends the channel its token, so the parking select finds both arms
// ready. Whichever arm it takes, the channel must go back to the free
// list empty: a waiter that left through ctx drains the token, or the
// next Wait would take the channel and wake spuriously at once. The
// select picks between ready arms at random, so the race is repeated
// until the cancel arm has been taken.
func TestCancelledWaiterDrainsRacedToken(t *testing.T) {
	const consumer, producer = 0, 1
	var ec EventCount
	cancelled := 0
	for i := 0; i < 32; i++ {
		arrived, release, undo := stallAt(t, yield.WQBeforePark, consumer)
		ctx, cancel := context.WithCancel(context.Background())
		res := make(chan error, 1)
		go func() {
			key := ec.Register()
			res <- ec.Wait(ctx, key, consumer)
		}()
		<-arrived
		cancel()
		ec.Notify(producer)
		close(release)
		err := <-res
		undo()
		if err != nil {
			cancelled++
		}

		ec.mu.Lock()
		nfree, nparked := len(ec.free), len(ec.parked)
		leftover := len(ec.free[nfree-1])
		ec.mu.Unlock()
		if nfree != 1 || nparked != 0 || leftover != 0 {
			t.Fatalf("after the race: %d free, %d parked, %d tokens left in the free channel; want 1, 0, 0", nfree, nparked, leftover)
		}

		// The next park takes the same channel and must sleep until its
		// own deadline, not wake on a stale token.
		ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Millisecond)
		key := ec.Register()
		err = ec.Wait(ctx2, key, consumer)
		cancel2()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("next Wait returned %v, want its deadline: a stale token woke it", err)
		}
	}
	if cancelled == 0 {
		t.Fatal("the parking select never took the cancel arm")
	}
	t.Logf("cancel arm taken in %d of 32 races", cancelled)
}
