//go:build !race

// The race detector changes allocation counts, so this file builds only
// without it.

package server

import (
	"testing"
	"time"

	"wfq/internal/qsvc/client"
)

// TestWirePairAllocs pins the serving path's allocations per
// Enqueue(16 B) + Dequeue(no wait) round-trip pair on the default backend
// at the three the queue semantics need: the engine's node, the server's
// copy of the enqueued payload (the queue keeps the element), and the
// client's copy of the dequeued one (the caller owns it). Framing,
// decoding and the response path must allocate nothing.
func TestWirePairAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement")
	}
	// A sweep that never ticks inside the window: each tick allocates its
	// registry snapshot, which is not per-request cost.
	s := New(Options{SweepInterval: time.Hour})
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
	if _, err := c.Create("pairs", client.CreateOptions{}); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 16)
	pair := func() {
		if err := c.Enqueue("pairs", payload, 0); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := c.Dequeue("pairs", 0); !ok || err != nil {
			t.Fatalf("dequeue: ok=%v err=%v", ok, err)
		}
	}
	for i := 0; i < 1000; i++ {
		pair() // grow the connection buffers and the session out of the window
	}
	got := testing.AllocsPerRun(2000, pair)
	if got > 3 {
		t.Fatalf("wire pair allocates %.2f/op, want <= 3 (node, server payload copy, client copy)", got)
	}
	t.Logf("allocs per Enqueue+Dequeue pair over the wire: %.2f", got)
}
