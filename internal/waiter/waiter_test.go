package waiter

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// awaitWaiter blocks until ec reports a registered waiter, with a
// deadline — deterministic park detection for the wake tests.
// Registration precedes the physical park and is the event the
// no-lost-wakeup protocol keys on, so "registered" is the exact
// precondition a notifier needs; no sleep calibration involved.
func awaitWaiter(t *testing.T, ec *EventCount) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); ec.Waiters() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("waiter never registered")
		}
		runtime.Gosched()
	}
}

// parkedCount reports how many waiters are parked (their wake channels
// listed), as opposed to merely registered.
func parkedCount(ec *EventCount) int {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	return len(ec.parked)
}

// chanSource is a trivial Source: a mutex-guarded slice. Drained is the
// single-FIFO rule (empty observation is genuine emptiness).
type chanSource struct {
	mu  sync.Mutex
	buf []int
}

func (s *chanSource) push(v int) {
	s.mu.Lock()
	s.buf = append(s.buf, v)
	s.mu.Unlock()
}

func (s *chanSource) Dequeue(int) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.buf) == 0 {
		return 0, false
	}
	v := s.buf[0]
	s.buf = s.buf[1:]
	return v, true
}

func (s *chanSource) Drained() bool { return true }

func (s *chanSource) DequeueBatch(tid int, dst []int) int {
	n := 0
	for n < len(dst) {
		v, ok := s.Dequeue(tid)
		if !ok {
			break
		}
		dst[n] = v
		n++
	}
	return n
}

func TestEventCountRegisterKeyVoidedByNotify(t *testing.T) {
	var ec EventCount
	key := ec.Register()
	if ec.Waiters() != 1 {
		t.Fatalf("waiters %d", ec.Waiters())
	}
	ec.Notify(0) // waiter registered → must bump seq
	if got := ec.Seq(); got == key {
		t.Fatal("notify with a registered waiter did not move the sequence")
	}
	// A voided key must not park.
	done := make(chan error, 1)
	go func() { done <- ec.Wait(context.Background(), key, 0) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Wait: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Wait parked on a voided key")
	}
	if ec.Waiters() != 0 {
		t.Fatalf("waiters %d after wait", ec.Waiters())
	}
}

func TestEventCountNotifySkippedWithoutWaiters(t *testing.T) {
	var ec EventCount
	before := ec.Seq()
	ec.Notify(0)
	if ec.Seq() != before {
		t.Fatal("notify bumped seq with no waiter registered")
	}
}

func TestEventCountWaitWakesOnNotify(t *testing.T) {
	var ec EventCount
	done := make(chan error, 1)
	go func() {
		key := ec.Register()
		done <- ec.Wait(context.Background(), key, 0)
	}()
	awaitWaiter(t, &ec)
	ec.Notify(0)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Wait: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("notify did not wake the parked waiter")
	}
}

func TestEventCountWaitHonorsContext(t *testing.T) {
	var ec EventCount
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		key := ec.Register()
		done <- ec.Wait(ctx, key, 0)
	}()
	awaitWaiter(t, &ec)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Wait returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancel did not wake the parked waiter")
	}
	if ec.Waiters() != 0 {
		t.Fatalf("waiters %d after cancelled wait", ec.Waiters())
	}
}

func TestLifecycleEnterAfterCloseFails(t *testing.T) {
	g := NewGate(2)
	if !g.Enter(0) {
		t.Fatal("enter on open gate failed")
	}
	g.Exit(0)
	if err := g.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if g.Enter(1) {
		t.Fatal("enter succeeded after close")
	}
	if err := g.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second close: %v, want ErrClosed", err)
	}
	if !g.Closed() || !g.Quiesced() {
		t.Fatal("close did not publish closed+quiesced")
	}
}

func TestCloseAwaitsInflightEnqueue(t *testing.T) {
	g := NewGate(2)
	if !g.Enter(0) {
		t.Fatal("enter failed")
	}
	closed := make(chan error, 1)
	go func() { closed <- g.Close() }()
	// Close must not return while tid 0 is still in flight.
	select {
	case <-closed:
		t.Fatal("Close returned with an enqueue in flight")
	case <-time.After(50 * time.Millisecond):
	}
	if g.Quiesced() {
		t.Fatal("quiesced published with an enqueue in flight")
	}
	g.Exit(0)
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not return after the in-flight enqueue exited")
	}
	if !g.Quiesced() {
		t.Fatal("quiesced not published after close")
	}
}

func TestDequeueCtxFastPath(t *testing.T) {
	g := NewGate(1)
	src := &chanSource{}
	src.push(42)
	v, err := DequeueCtx[int](context.Background(), g, src, nil, 0, 0, 0)
	if err != nil || v != 42 {
		t.Fatalf("got (%d, %v)", v, err)
	}
	if g.EC().Seq() != 0 || g.EC().Waiters() != 0 {
		t.Fatal("fast path touched the eventcount")
	}
}

func TestDequeueCtxParksAndWakes(t *testing.T) {
	g := NewGate(2)
	src := &chanSource{}
	done := make(chan int, 1)
	go func() {
		v, err := DequeueCtx[int](context.Background(), g, src, nil, 0, 0, 0)
		if err != nil {
			t.Errorf("DequeueCtx: %v", err)
		}
		done <- v
	}()
	awaitWaiter(t, g.EC())
	// Producer protocol: publish, then notify.
	src.push(7)
	g.Notify(1)
	select {
	case v := <-done:
		if v != 7 {
			t.Fatalf("got %d", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("parked consumer missed the wakeup")
	}
}

func TestDequeueCtxCloseDrain(t *testing.T) {
	g := NewGate(1)
	src := &chanSource{}
	src.push(1)
	src.push(2)
	if err := g.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	ctx := context.Background()
	for want := 1; want <= 2; want++ {
		v, err := DequeueCtx[int](ctx, g, src, nil, 0, 0, 0)
		if err != nil || v != want {
			t.Fatalf("drain got (%d, %v), want (%d, nil)", v, err, want)
		}
	}
	if _, err := DequeueCtx[int](ctx, g, src, nil, 0, 0, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("drained dequeue: %v, want ErrClosed", err)
	}
}

func TestDequeueCtxCloseWakesParked(t *testing.T) {
	g := NewGate(1)
	src := &chanSource{}
	done := make(chan error, 1)
	go func() {
		_, err := DequeueCtx[int](context.Background(), g, src, nil, 0, 0, 0)
		done <- err
	}()
	awaitWaiter(t, g.EC())
	if err := g.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("woken waiter returned %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("close did not wake the parked waiter")
	}
}

func TestDequeueCtxPrefersElementOverExpiredContext(t *testing.T) {
	g := NewGate(1)
	src := &chanSource{}
	src.push(9)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if v, err := DequeueCtx[int](ctx, g, src, nil, 0, 0, 0); err != nil || v != 9 {
		t.Fatalf("got (%d, %v), want (9, nil)", v, err)
	}
	if _, err := DequeueCtx[int](ctx, g, src, nil, 0, 0, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("empty dequeue under cancelled ctx: %v", err)
	}
}

type fatalLiveness struct{ err error }

func (l fatalLiveness) Err() error { return l.err }

func TestDequeueCtxLivenessCheckedFirst(t *testing.T) {
	g := NewGate(1)
	src := &chanSource{}
	src.push(1)
	want := errors.New("lease gone")
	_, err := DequeueCtx[int](context.Background(), g, src, fatalLiveness{want}, 0, 0, 0)
	if !errors.Is(err, want) {
		t.Fatalf("got %v, want liveness error even with an element available", err)
	}
}

func TestDequeueBatchCtx(t *testing.T) {
	g := NewGate(2)
	src := &chanSource{}
	dst := make([]int, 4)
	done := make(chan int, 1)
	go func() {
		n, err := DequeueBatchCtx[int](context.Background(), g, src, nil, 0, 0, 0, dst)
		if err != nil {
			t.Errorf("DequeueBatchCtx: %v", err)
		}
		done <- n
	}()
	awaitWaiter(t, g.EC())
	src.push(1)
	src.push(2)
	g.Notify(1)
	select {
	case n := <-done:
		if n == 0 {
			t.Fatal("batch woke with nothing")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("parked batch consumer missed the wakeup")
	}
	// After close+drain the batch form reports (0, ErrClosed).
	if err := g.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	for {
		n, err := DequeueBatchCtx[int](context.Background(), g, src, nil, 0, 0, 0, dst)
		if err != nil {
			if n != 0 || !errors.Is(err, ErrClosed) {
				t.Fatalf("(%d, %v)", n, err)
			}
			break
		}
	}
}

// TestNoLostWakeupStress hammers the publish→notify / register→recheck→
// park pair from many goroutines: every pushed element must be consumed
// — a lost wakeup shows up as a hang (caught by the deadline watchdog).
func TestNoLostWakeupStress(t *testing.T) {
	const producers, consumers, perProducer = 4, 4, 2000
	g := NewGate(producers + consumers)
	src := &chanSource{}
	var got atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if !g.Enter(tid) {
					t.Error("enter failed while open")
					return
				}
				src.push(tid<<20 | i)
				g.Exit(tid)
				g.Notify(tid)
			}
		}(p)
	}
	var cwg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		cwg.Add(1)
		go func(tid int) {
			defer cwg.Done()
			for {
				_, err := DequeueCtx[int](context.Background(), g, src, nil, tid, 0, 0)
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("consumer: %v", err)
					}
					return
				}
				got.Add(1)
			}
		}(producers + c)
	}
	wg.Wait()
	if err := g.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	done := make(chan struct{})
	go func() { cwg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("consumers hung: lost wakeup or broken drain")
	}
	if got.Load() != producers*perProducer {
		t.Fatalf("consumed %d of %d", got.Load(), producers*perProducer)
	}
}
