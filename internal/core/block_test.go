package core

import (
	"runtime"
	"testing"
	"time"
)

// withBlock sets the nodes per allocation block, so a test can cross
// block boundaries every few nodes instead of every nodeBlock.
func withBlock(n int) Option { return func(c *config) { c.block = n } }

// payload is a pointer value big enough to bypass the tiny allocator,
// whose shared 16-byte chunks can delay a finalizer indefinitely.
type payload [64]byte

// TestDequeuedValueCollectable pins the value hygiene that makes node
// blocks safe for pointer payloads: a block stays live while any of its
// nodes is, and the thread's current block is also held by its cursor,
// so a dequeued value must not stay reachable through its node. The
// dequeued value's node is the new sentinel (reachable from head) and
// sits in the thread's current block; the value must still be collected.
// Covers the three claimant read sites: the slow path (Line 107), the
// fast path, and the fast batch dequeue. Run under -race by the tier-1
// gate.
func TestDequeuedValueCollectable(t *testing.T) {
	for _, tc := range []struct {
		name  string
		q     *Queue[*payload]
		batch bool
	}{
		{"slow", New[*payload](1, WithVariant(VariantOpt12)), false},
		{"fast", New[*payload](1, WithFastPath(0)), false},
		{"fast-batch", New[*payload](1, WithFastPath(0)), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			collected := enqueueDequeueTracked(t, tc.q, tc.batch)
			if blocks, gets := tc.q.ArenaStats(); blocks != 1 || gets >= nodeBlock {
				t.Fatalf("blocks/gets = %d/%d: the dequeued node's block is no longer the thread's current block", blocks, gets)
			}
			deadline := time.Now().Add(5 * time.Second)
			for {
				runtime.GC()
				select {
				case <-collected:
					runtime.KeepAlive(tc.q)
					return
				case <-time.After(10 * time.Millisecond):
				}
				if time.Now().After(deadline) {
					t.Fatal("dequeued value still reachable after GC: its node keeps it live")
				}
			}
		})
	}
}

// enqueueDequeueTracked enqueues a finalizer-tracked value and dequeues
// it again, leaving no reference to it on the caller's stack. The
// returned channel closes once the value is collected.
//
//go:noinline
func enqueueDequeueTracked(t *testing.T, q *Queue[*payload], batch bool) <-chan struct{} {
	collected := make(chan struct{})
	v := new(payload)
	v[0] = 42
	runtime.SetFinalizer(v, func(*payload) { close(collected) })
	q.Enqueue(0, v)
	var got *payload
	if batch {
		dst := make([]*payload, 2)
		if n := q.DequeueBatch(0, dst); n != 1 {
			t.Fatalf("DequeueBatch = %d, want 1", n)
		}
		got = dst[0]
	} else {
		var ok bool
		if got, ok = q.Dequeue(0); !ok {
			t.Fatal("Dequeue reported empty")
		}
	}
	if got != v || got[0] != 42 {
		t.Fatal("dequeued a different value")
	}
	return collected
}

// TestIdleThreadBlockReleased pins the sweep that bounds what an idle
// thread's block retains. Thread 1 enqueues and dequeues once, then goes
// quiet with its dequeued node in its current block; that node's next
// pointer leads to every node enqueued after it. Unless the sweep drops
// the idle block, thread 0's pairs would keep all their nodes reachable
// (about 3 MiB here).
func TestIdleThreadBlockReleased(t *testing.T) {
	q := New[uint64](2, WithFastPath(0), WithClearOnExit())
	q.Enqueue(1, 1)
	q.Dequeue(1)
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	for i := uint64(0); i < 1<<17; i++ {
		q.Enqueue(0, i)
		q.Dequeue(0)
	}
	if grew := int64(heap()) - int64(before); grew > 1<<20 {
		t.Fatalf("heap grew %d bytes over 2^17 pairs: the idle thread's block keeps them reachable", grew)
	}
	runtime.KeepAlive(q)
}
