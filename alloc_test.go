//go:build !race

// The race detector changes allocation counts, so this file builds only
// without it.

package wfq

import (
	"runtime"
	"testing"
)

// TestHandlePairAllocs gates the linked engine's steady state: a Handle
// Enqueue+Dequeue pair on the fast-path queue allocates only its share
// of a node block, one allocation per 16 enqueues. testing.AllocsPerRun
// truncates to whole allocations, so the mallocs are counted directly.
func TestHandlePairAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement")
	}
	q := New[uint64](2, WithFastPath(0))
	h, err := q.Handle()
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	pair := func(i uint64) {
		h.Enqueue(i)
		if v, ok := h.Dequeue(); !ok || v != i {
			t.Fatalf("Dequeue = %d, %v; want %d, true", v, ok, i)
		}
	}
	for i := uint64(0); i < 1000; i++ {
		pair(i)
	}
	const pairs = 1 << 14
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := uint64(0); i < pairs; i++ {
		pair(i)
	}
	runtime.ReadMemStats(&after)
	got := float64(after.Mallocs-before.Mallocs) / pairs
	if limit := 1.0/16 + 0.01; got > limit {
		t.Fatalf("Handle pair allocates %.4f/op, want <= %.4f (one node block per 16 enqueues)", got, limit)
	}
	t.Logf("allocs per Handle Enqueue+Dequeue pair: %.4f", got)
}

// TestConstructionAllocs gates what New allocates up front: node blocks
// are taken on a thread's first enqueue, not at construction, so these
// counts are those of the one-allocation-per-node engine before it.
func TestConstructionAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement")
	}
	for _, tc := range []struct {
		name  string
		build func()
		want  float64
	}{
		{"New[uint64](2, WithFastPath(0), WithClearOnExit())", func() {
			New[uint64](2, WithFastPath(0), WithClearOnExit())
		}, 26},
		{"New[[]byte](256, WithFastPath(0))", func() { New[[]byte](256, WithFastPath(0)) }, 539},
	} {
		if got := testing.AllocsPerRun(100, tc.build); got > tc.want {
			t.Errorf("%s allocates %.0f, want <= %.0f", tc.name, got, tc.want)
		}
	}
}
