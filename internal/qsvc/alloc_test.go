package qsvc

import (
	"testing"
	"time"
)

// TestNoDeadlinePathAllocParity is the acceptance gate for the service
// layer's hot path: a queue with NO deadline-armed requests must pay no
// per-op timer allocation — allocs/op identical to the bare facade on
// the same backend. The envelope travels by value, the delay histogram
// is two atomic adds, and no Req is materialized, so the only
// allocations are whatever the backend itself does (zero, on the warm
// ring).
func TestNoDeadlinePathAllocParity(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement")
	}

	// Facade baseline: the same envelope type over the same backend, so
	// element size cannot skew the comparison.
	baseline := newQueue[int64]("baseline", 0, Config{Backend: BackendRing})
	bh, err := baseline.wq.Handle()
	if err != nil {
		t.Fatal(err)
	}
	defer bh.Release()
	warm := func(f func()) float64 {
		for i := 0; i < 4096; i++ {
			f() // warm segment free lists / arenas out of the measured window
		}
		return testing.AllocsPerRun(4096, f)
	}
	baseAllocs := warm(func() {
		if err := bh.TryEnqueue(env[int64]{v: 1}); err != nil {
			t.Fatal(err)
		}
		if _, ok := bh.Dequeue(); !ok {
			t.Fatal("baseline dequeue empty")
		}
	})

	r := NewRegistry[int64]()
	q, _ := r.Create("hot", Config{Backend: BackendRing})
	s, err := q.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()
	svcAllocs := warm(func() {
		if _, err := s.Enqueue(1, 0); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.TryDequeue(); !ok {
			t.Fatal("service dequeue empty")
		}
	})

	if svcAllocs != baseAllocs {
		t.Fatalf("no-deadline service path allocates %.3f/op, facade baseline %.3f/op — timer state leaked onto the hot path", svcAllocs, baseAllocs)
	}
	t.Logf("allocs/op: facade %.3f, qsvc %.3f", baseAllocs, svcAllocs)
}

// TestArmedPathAllocBounded documents Session.Enqueue's armed cost: a
// fresh Req and its done channel per request (plus amortized heap
// growth) — the price of a completion handle the caller keeps, paid
// only by requests that ask for a deadline. Session.EnqueueWait re-arms
// the session's own record instead and pays neither once its request
// completes (TestWireArmedDeliveryAllocs in internal/qsvc/server).
func TestArmedPathAllocBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement")
	}
	r := NewRegistry[int64]()
	q, _ := r.Create("armed", Config{Backend: BackendRing})
	s, err := q.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()
	allocs := testing.AllocsPerRun(2048, func() {
		if _, err := s.Enqueue(1, time.Hour); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.TryDequeue(); !ok {
			t.Fatal("dequeue empty")
		}
	})
	if allocs > 4 {
		t.Fatalf("armed path allocates %.1f/op, want <= 4 (fresh Req + channel + amortized bookkeeping)", allocs)
	}
	t.Logf("armed allocs/op: %.1f", allocs)
}
