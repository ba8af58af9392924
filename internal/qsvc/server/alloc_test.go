//go:build !race

// The race detector changes allocation counts, so this file builds only
// without it.

package server

import (
	"errors"
	"testing"
	"time"

	"wfq/internal/qsvc/client"
	"wfq/internal/yield"
)

// TestWirePairAllocs pins the serving path's allocations per
// Enqueue(16 B) + Dequeue(no wait) round-trip pair on the default backend
// at the one the queue semantics need: the client's copy of the dequeued
// payload (the caller owns it). The engine's node is carved from its
// thread's node block, one allocation per 16 enqueues, and the server's
// copy of the enqueued payload from its session's slab chunk, one
// allocation per slabChunk bytes. Framing, decoding and the response
// path must allocate nothing. testing.AllocsPerRun truncates, so these
// fractional shares do not show.
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
	if got > 1 {
		t.Fatalf("wire pair allocates %.2f/op, want <= 1 (client copy)", got)
	}
	t.Logf("allocs per Enqueue+Dequeue pair over the wire: %.2f", got)
}

// TestWireArmedDeliveryAllocs pins an armed delivery — EnqueueWait(16 B,
// deadline) taken by a consumer parked in a blocking Dequeue — at the
// same one allocation, the client's copy: the node comes from a node
// block, the producer's session re-arms its completion record, and the
// consumer's handler parks on a reused wake channel.
func TestWireArmedDeliveryAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement")
	}
	s := New(Options{SweepInterval: time.Hour})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Shutdown)
	prod, err := client.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { prod.Close() })
	cons, err := client.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cons.Close() })
	if _, err := prod.Create("armed", client.CreateOptions{}); err != nil {
		t.Fatal(err)
	}

	// The consumer blocks in Dequeue for one element per delivery, and
	// the producer enqueues only once the consumer's handler has parked.
	parked := make(chan struct{}, 1)
	prev := yield.Set(func(p yield.Point, _, _ int) {
		if p == yield.WQBeforePark {
			select {
			case parked <- struct{}{}:
			default:
			}
		}
	})
	t.Cleanup(func() { yield.Set(prev) })
	next, got := make(chan struct{}), make(chan error)
	go func() {
		for range next {
			_, ok, err := cons.Dequeue("armed", -1)
			if err == nil && !ok {
				err = errors.New("blocking dequeue returned empty")
			}
			got <- err
		}
	}()
	t.Cleanup(func() { close(next) })
	payload := make([]byte, 16)
	deliver := func() {
		next <- struct{}{}
		<-parked
		if err := prod.EnqueueWait("armed", payload, time.Hour); err != nil {
			t.Fatal(err)
		}
		if err := <-got; err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1000; i++ {
		deliver()
	}
	allocs := testing.AllocsPerRun(2000, deliver)
	if allocs > 1 {
		t.Fatalf("armed delivery allocates %.2f/op, want <= 1 (client copy)", allocs)
	}
	t.Logf("allocs per armed delivery over the wire: %.2f", allocs)
}
