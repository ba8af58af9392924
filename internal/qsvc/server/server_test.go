package server

// End-to-end tests: a real listener on 127.0.0.1:0, the real client,
// the full wire protocol. These pin the status↔error mapping (typed
// sentinels survive the wire), the lifecycle semantics (close drains,
// delete aborts), and the deadline machinery driven by the server's own
// sweep ticker rather than a test calling Tick by hand.

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"wfq"
	"wfq/internal/qsvc"
	"wfq/internal/qsvc/client"
	"wfq/internal/qsvc/wire"
)

// startServer runs a server on an ephemeral port and returns a
// connected client; both are torn down with the test.
func startServer(t *testing.T) (*Server, *client.Conn) {
	t.Helper()
	s := New(Options{SweepInterval: 500 * time.Microsecond})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Shutdown)
	c, err := client.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return s, c
}

func TestServerRoundtrip(t *testing.T) {
	_, c := startServer(t)

	gen, err := c.Create("orders", client.CreateOptions{Backend: "ring"})
	if err != nil {
		t.Fatal(err)
	}
	if gen == 0 {
		t.Fatal("create returned zero generation")
	}
	if _, err := c.Create("orders", client.CreateOptions{}); !errors.Is(err, qsvc.ErrExists) {
		t.Fatalf("duplicate create: %v, want ErrExists", err)
	}

	for i := 0; i < 100; i++ {
		if err := c.Enqueue("orders", []byte(fmt.Sprintf("msg-%03d", i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		v, ok, err := c.Dequeue("orders", 0)
		if err != nil || !ok {
			t.Fatalf("dequeue %d: ok=%v err=%v", i, ok, err)
		}
		if want := fmt.Sprintf("msg-%03d", i); string(v) != want {
			t.Fatalf("FIFO violated: got %q want %q", v, want)
		}
	}
	if _, ok, err := c.Dequeue("orders", 0); ok || err != nil {
		t.Fatalf("empty dequeue: ok=%v err=%v", ok, err)
	}

	st, err := c.Stats("orders")
	if err != nil {
		t.Fatal(err)
	}
	if st.Name != "orders" || st.Gen != gen || st.Admitted != 100 || st.Delivered != 100 {
		t.Fatalf("stats across the wire: %+v", st)
	}
	if st.Delay.Count != 100 || st.Delay.P99 <= 0 {
		t.Fatalf("delay histogram not populated: %+v", st.Delay)
	}
}

func TestServerUnknownQueue(t *testing.T) {
	_, c := startServer(t)
	if err := c.Enqueue("ghost", []byte("x"), 0); !errors.Is(err, qsvc.ErrNotFound) {
		t.Fatalf("enqueue to missing queue: %v", err)
	}
	if _, _, err := c.Dequeue("ghost", 0); !errors.Is(err, qsvc.ErrNotFound) {
		t.Fatalf("dequeue from missing queue: %v", err)
	}
	if _, err := c.Stats("ghost"); !errors.Is(err, qsvc.ErrNotFound) {
		t.Fatalf("stats of missing queue: %v", err)
	}
	if err := c.Delete("ghost"); !errors.Is(err, qsvc.ErrNotFound) {
		t.Fatalf("delete of missing queue: %v", err)
	}
}

// TestServerLargeFrames: payloads larger than the buffers a connection
// keeps between requests round-trip intact, interleaved with small ones,
// so dropping a grown buffer never loses or mixes up bytes.
func TestServerLargeFrames(t *testing.T) {
	_, c := startServer(t)
	if _, err := c.Create("big", client.CreateOptions{}); err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{
		[]byte("small"),
		[]byte(strings.Repeat("L", 300<<10)),
		[]byte("tiny"),
		[]byte(strings.Repeat("M", 70<<10)),
	}
	for _, p := range payloads {
		if err := c.Enqueue("big", p, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range payloads {
		got, ok, err := c.Dequeue("big", 0)
		if err != nil || !ok {
			t.Fatalf("dequeue %d: ok=%v err=%v", i, ok, err)
		}
		if string(got) != string(want) {
			t.Fatalf("dequeue %d: got %d bytes, want %d", i, len(got), len(want))
		}
	}
}

// TestServerBlockingDequeue: a blocking dequeue parked on one
// connection is satisfied by an enqueue on another.
func TestServerBlockingDequeue(t *testing.T) {
	s, c := startServer(t)
	if _, err := c.Create("q", client.CreateOptions{}); err != nil {
		t.Fatal(err)
	}

	c2, err := client.Dial(s.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	got := make(chan []byte, 1)
	errc := make(chan error, 1)
	go func() {
		v, ok, err := c2.Dequeue("q", -1)
		if err != nil || !ok {
			errc <- fmt.Errorf("blocking dequeue: ok=%v err=%v", ok, err)
			return
		}
		got <- v
	}()
	time.Sleep(20 * time.Millisecond) // let it park server-side
	if err := c.Enqueue("q", []byte("wake"), 0); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-got:
		if string(v) != "wake" {
			t.Fatalf("got %q", v)
		}
	case err := <-errc:
		t.Fatal(err)
	case <-time.After(10 * time.Second):
		t.Fatal("blocking dequeue never woke")
	}

	// Bounded wait on an empty queue returns empty, not an error.
	start := time.Now()
	if _, ok, err := c.Dequeue("q", 30*time.Millisecond); ok || err != nil {
		t.Fatalf("bounded wait: ok=%v err=%v", ok, err)
	}
	if time.Since(start) < 25*time.Millisecond {
		t.Fatal("bounded wait returned before its timeout")
	}
}

// TestServerEnqueueWaitDeadline: with no consumer, an enqueue-and-wait
// must be expired by the server's sweep ticker and surface the typed
// deadline error across the wire.
func TestServerEnqueueWaitDeadline(t *testing.T) {
	s, c := startServer(t)
	if _, err := c.Create("q", client.CreateOptions{}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := c.EnqueueWait("q", []byte("doomed"), 5*time.Millisecond)
	if !errors.Is(err, wfq.ErrDeadlineExceeded) {
		t.Fatalf("EnqueueWait with no consumer: %v, want ErrDeadlineExceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("expiry took implausibly long")
	}
	if s.Swept() == 0 {
		t.Fatal("server sweep ticker never expired anything")
	}
	// The expired envelope is a tombstone: a dequeue must NOT deliver it.
	if v, ok, err := c.Dequeue("q", 0); ok || err != nil {
		t.Fatalf("tombstone delivered: %q ok=%v err=%v", v, ok, err)
	}
}

// TestServerEnqueueWaitDelivered: the happy path — a consumer takes the
// element and the waiting producer's response is StOK.
func TestServerEnqueueWaitDelivered(t *testing.T) {
	s, c := startServer(t)
	if _, err := c.Create("q", client.CreateOptions{}); err != nil {
		t.Fatal(err)
	}
	c2, err := client.Dial(s.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	done := make(chan error, 1)
	go func() { done <- c.EnqueueWait("q", []byte("v"), 10*time.Second) }()
	v, ok, err := c2.Dequeue("q", -1)
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("consumer: %q ok=%v err=%v", v, ok, err)
	}
	if err := <-done; err != nil {
		t.Fatalf("producer wait: %v, want nil after delivery", err)
	}
}

// TestServerAdmission: the depth cap rejects over the wire with the
// typed admission error, and depth never exceeds the cap.
func TestServerAdmission(t *testing.T) {
	_, c := startServer(t)
	const cap = 8
	if _, err := c.Create("small", client.CreateOptions{MaxDepth: cap}); err != nil {
		t.Fatal(err)
	}
	var rejected int
	for i := 0; i < 3*cap; i++ {
		err := c.Enqueue("small", []byte("x"), 0)
		if errors.Is(err, wfq.ErrAdmission) {
			rejected++
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if rejected != 2*cap {
		t.Fatalf("rejected %d, want %d", rejected, 2*cap)
	}
	st, err := c.Stats("small")
	if err != nil {
		t.Fatal(err)
	}
	if st.Depth != cap || st.Rejected != 2*cap {
		t.Fatalf("stats after rejection: %+v", st)
	}
}

// TestServerCloseAndDelete: close drains then reports closed; a
// recreated name gets a new generation; delete wakes parked consumers.
func TestServerCloseAndDelete(t *testing.T) {
	s, c := startServer(t)
	gen1, err := c.Create("q", client.CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Enqueue("q", []byte("last"), 0); err != nil {
		t.Fatal(err)
	}
	if err := c.CloseQueue("q"); err != nil {
		t.Fatal(err)
	}
	if err := c.Enqueue("q", []byte("late"), 0); !errors.Is(err, wfq.ErrClosed) {
		t.Fatalf("enqueue after close: %v", err)
	}
	// The backlog drains first...
	if v, ok, err := c.Dequeue("q", 0); err != nil || !ok || string(v) != "last" {
		t.Fatalf("drain: %q ok=%v err=%v", v, ok, err)
	}
	// ...then the closed state surfaces.
	if _, _, err := c.Dequeue("q", 0); !errors.Is(err, wfq.ErrClosed) {
		t.Fatalf("dequeue after drain: %v, want ErrClosed", err)
	}

	if err := c.Delete("q"); err != nil {
		t.Fatal(err)
	}
	gen2, err := c.Create("q", client.CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if gen2 <= gen1 {
		t.Fatalf("recreated generation %d not above %d", gen2, gen1)
	}
	// The connection's cached session was for gen1; this enqueue must
	// transparently re-resolve to the new queue.
	if err := c.Enqueue("q", []byte("fresh"), 0); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats("q")
	if err != nil {
		t.Fatal(err)
	}
	if st.Gen != gen2 || st.Admitted != 1 {
		t.Fatalf("post-recreate stats: %+v", st)
	}

	// Delete while a consumer is parked: the waiter must get ErrClosed.
	parked := make(chan error, 1)
	c2, err := client.Dial(s.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, ok, err := c2.Dequeue("q", 0); !ok || err != nil {
		t.Fatalf("drain fresh: ok=%v err=%v", ok, err)
	}
	go func() {
		_, _, err := c2.Dequeue("q", -1)
		parked <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if err := c.Delete("q"); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-parked:
		if !errors.Is(err, wfq.ErrClosed) {
			t.Fatalf("parked consumer after delete: %v, want ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("parked consumer hung through delete")
	}
}

// TestServerShutdownUnparksWaiters: Shutdown must complete while
// handlers are parked in an unbounded blocking dequeue and in an
// enqueue-and-wait whose deadline is far away — closing their TCP conns
// does not interrupt either wait, so the server's base context has to.
func TestServerShutdownUnparksWaiters(t *testing.T) {
	s := New(Options{SweepInterval: time.Millisecond})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Create("q", client.CreateOptions{}); err != nil {
		t.Fatal(err)
	}

	// Park an unbounded dequeue and an enqueue-and-wait (deadline far
	// enough out that the sweeper cannot be what unparks it), each on
	// its own connection.
	cDeq, err := client.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer cDeq.Close()
	cEnq, err := client.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer cEnq.Close()
	go func() { _, _, _ = cDeq.Dequeue("q", -1) }()
	go func() { _ = cEnq.EnqueueWait("q", []byte("v"), time.Hour) }()
	time.Sleep(30 * time.Millisecond) // let both park server-side

	done := make(chan struct{})
	go func() { s.Shutdown(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown hung on parked handlers")
	}
}

// TestServerWaitWithoutDeadlineRejected: a raw VEnq frame with FlagWait
// but no deadline (the Go client refuses to send one, so craft it by
// hand) must be rejected outright — not silently degraded to a
// fire-and-forget enqueue with a success status.
func TestServerWaitWithoutDeadlineRejected(t *testing.T) {
	s, c := startServer(t)
	if _, err := c.Create("q", client.CreateOptions{}); err != nil {
		t.Fatal(err)
	}
	raw, err := net.Dial("tcp", s.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	req := wire.Request{Verb: wire.VEnq, Name: "q", Flags: wire.FlagWait, Payload: []byte("x")}
	body, err := req.EncodeRequest(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(raw, body); err != nil {
		t.Fatal(err)
	}
	frame, err := wire.ReadFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := wire.DecodeResponse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StErr || !strings.Contains(string(resp.Payload), "deadline") {
		t.Fatalf("FlagWait without deadline: status=%d payload=%q, want StErr mentioning the deadline", resp.Status, resp.Payload)
	}
	// The rejection must happen before admission: nothing enqueued.
	st, err := c.Stats("q")
	if err != nil {
		t.Fatal(err)
	}
	if st.Admitted != 0 || st.Depth != 0 {
		t.Fatalf("rejected wait-enqueue was admitted anyway: %+v", st)
	}
}

// TestServerSessionExhaustionDetail: when a queue's session namespace is
// exhausted, the wire error must carry the tid detail so clients can
// tell it apart from other StErr failures.
func TestServerSessionExhaustionDetail(t *testing.T) {
	s, c := startServer(t)
	if _, err := c.Create("tiny", client.CreateOptions{MaxThreads: 1}); err != nil {
		t.Fatal(err)
	}
	// First connection takes the only session...
	if err := c.Enqueue("tiny", []byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	// ...so a second connection cannot lease one.
	c2, err := client.Dial(s.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	err = c2.Enqueue("tiny", []byte("y"), 0)
	if err == nil {
		t.Fatal("second session on MaxThreads=1 queue unexpectedly succeeded")
	}
	if !strings.Contains(err.Error(), "exhausted") {
		t.Fatalf("exhaustion error lost its detail across the wire: %v", err)
	}
}

// TestServerCloseRaceConservation: an enqueue racing Close can publish
// its element after a consumer's empty TryDequeue but before the
// consumer's closed-state probe; the probe dequeues it (an available
// element wins over an expired ctx) and must DELIVER it, not drop it.
// Every accepted enqueue is dequeued exactly once.
func TestServerCloseRaceConservation(t *testing.T) {
	s, c := startServer(t)
	prod, err := client.Dial(s.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer prod.Close()
	cons, err := client.Dial(s.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()

	const iters = 25
	for iter := 0; iter < iters; iter++ {
		name := fmt.Sprintf("race-%d", iter)
		if _, err := c.Create(name, client.CreateOptions{}); err != nil {
			t.Fatal(err)
		}
		accepted := make(chan int, 1)
		go func() {
			n := 0
			for i := 0; i < 200; i++ {
				err := prod.Enqueue(name, []byte{byte(i)}, 0)
				if errors.Is(err, wfq.ErrClosed) {
					break
				}
				if err != nil {
					t.Errorf("enqueue: %v", err)
					break
				}
				n++
			}
			accepted <- n
		}()
		go func() {
			time.Sleep(time.Duration(iter%5) * 100 * time.Microsecond)
			if err := c.CloseQueue(name); err != nil {
				t.Errorf("close: %v", err)
			}
		}()
		got := 0
		for {
			// Non-blocking dequeues so every empty observation takes the
			// TryDequeue-then-probe path under review.
			_, ok, err := cons.Dequeue(name, 0)
			if errors.Is(err, wfq.ErrClosed) {
				break
			}
			if err != nil {
				t.Fatalf("dequeue: %v", err)
			}
			if ok {
				got++
			}
		}
		want := <-accepted
		if got != want {
			t.Fatalf("iter %d: accepted %d enqueues but dequeued %d — conservation violated", iter, want, got)
		}
		if err := c.Delete(name); err != nil {
			t.Fatal(err)
		}
	}
}

// TestServerConcurrentClients: many client connections hammer one queue;
// every payload sent is received exactly once.
func TestServerConcurrentClients(t *testing.T) {
	s, c := startServer(t)
	if _, err := c.Create("q", client.CreateOptions{Backend: "ring"}); err != nil {
		t.Fatal(err)
	}
	const (
		producers = 4
		consumers = 4
		perProd   = 250
	)
	total := producers * perProd
	var wg sync.WaitGroup
	seen := make(chan string, total)

	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			pc, err := client.Dial(s.ln.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer pc.Close()
			for i := 0; i < perProd; i++ {
				if err := pc.Enqueue("q", []byte(fmt.Sprintf("%d/%d", p, i)), 0); err != nil {
					t.Errorf("enqueue: %v", err)
					return
				}
			}
		}(p)
	}
	for cns := 0; cns < consumers; cns++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cc, err := client.Dial(s.ln.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer cc.Close()
			for {
				v, ok, err := cc.Dequeue("q", 200*time.Millisecond)
				if err != nil {
					t.Errorf("dequeue: %v", err)
					return
				}
				if !ok {
					return // drained and producers done
				}
				seen <- string(v)
			}
		}()
	}
	wg.Wait()
	close(seen)
	got := make(map[string]int, total)
	for v := range seen {
		got[v]++
	}
	if len(got) != total {
		t.Fatalf("lost envelopes: %d distinct of %d sent", len(got), total)
	}
	for v, n := range got {
		if n != 1 {
			t.Fatalf("envelope %q delivered %d times", v, n)
		}
	}
}

// TestCarvedPayloadsStayApart: payloads carved from one slab chunk end
// at their own length, so appending to one reallocates instead of
// overwriting the next; a payload over maxCarved is copied alone.
func TestCarvedPayloadsStayApart(t *testing.T) {
	var cs csess
	a := cs.copyPayload([]byte("aaaa"))
	b := cs.copyPayload([]byte("bbbb"))
	if cap(a) != len(a) {
		t.Fatalf("carved copy has capacity %d past its length %d", cap(a), len(a))
	}
	_ = append(a, "XXXX"...)
	if string(b) != "bbbb" {
		t.Fatalf("appending to one carved payload overwrote its neighbour: %q", b)
	}
	big := make([]byte, maxCarved+1)
	tail := len(cs.slab)
	if c := cs.copyPayload(big); len(c) != len(big) || len(cs.slab) != tail {
		t.Fatalf("a %d-byte payload was carved from the slab", len(big))
	}
}
