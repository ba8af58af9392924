package ring

import (
	"runtime/debug"
	"sync"
	"testing"
	"unsafe"

	"wfq/internal/model"
	"wfq/internal/xrand"
)

// TestSequentialFIFO drives single-threaded op mixes across many segment
// boundaries against the sequential model, over segment sizes chosen to
// exercise the boundary protocol constantly (1: every op crosses) and
// the default.
func TestSequentialFIFO(t *testing.T) {
	for _, segSize := range []int{1, 2, 3, 8, 0} {
		q := New[int64](2, segSize)
		var ref model.Queue
		rng := xrand.New(uint64(segSize) + 7)
		for i := 0; i < 5000; i++ {
			if rng.Next()%3 != 0 { // enqueue-biased: force boundary crossings
				v := int64(i)
				q.Enqueue(0, v)
				ref.Enqueue(v)
			} else {
				v, ok := q.Dequeue(1)
				rv, rok := ref.Dequeue()
				if ok != rok || v != rv {
					t.Fatalf("segSize=%d step %d: got (%d,%v), want (%d,%v)", segSize, i, v, ok, rv, rok)
				}
			}
			if q.Len() != ref.Len() {
				t.Fatalf("segSize=%d step %d: Len %d, want %d", segSize, i, q.Len(), ref.Len())
			}
		}
		for {
			v, ok := q.Dequeue(0)
			rv, rok := ref.Dequeue()
			if ok != rok || v != rv {
				t.Fatalf("segSize=%d drain: got (%d,%v), want (%d,%v)", segSize, v, ok, rv, rok)
			}
			if !ok {
				break
			}
		}
	}
}

// TestEmptySemantics checks the empty observation on a fresh queue, after
// a full drain, and interleaved with boundary crossings.
func TestEmptySemantics(t *testing.T) {
	q := New[int64](1, 4)
	if _, ok := q.Dequeue(0); ok {
		t.Fatal("fresh queue not empty")
	}
	for round := 0; round < 10; round++ {
		for i := int64(0); i < 9; i++ { // 9 elements over 4-slot segments
			q.Enqueue(0, i)
		}
		for i := int64(0); i < 9; i++ {
			if v, ok := q.Dequeue(0); !ok || v != i {
				t.Fatalf("round %d: got (%d,%v), want (%d,true)", round, v, ok, i)
			}
		}
		if _, ok := q.Dequeue(0); ok {
			t.Fatalf("round %d: drained queue not empty", round)
		}
		if q.Len() != 0 {
			t.Fatalf("round %d: Len %d after drain", round, q.Len())
		}
	}
}

// TestBatchVsModel runs a sequential mix of batch and single operations
// against the model; batch widths straddle segment boundaries.
func TestBatchVsModel(t *testing.T) {
	for _, segSize := range []int{3, 8, 64} {
		q := New[int64](2, segSize)
		var ref model.Queue
		rng := xrand.New(uint64(segSize) * 13)
		next := int64(0)
		buf := make([]int64, 16)
		for i := 0; i < 2000; i++ {
			switch rng.Next() % 4 {
			case 0:
				k := int(rng.Next()%uint64(len(buf))) + 1
				vs := buf[:k]
				for j := range vs {
					vs[j] = next
					ref.Enqueue(next)
					next++
				}
				q.EnqueueBatch(0, vs)
			case 1:
				k := int(rng.Next()%uint64(len(buf))) + 1
				n := q.DequeueBatch(1, buf[:k])
				for j := 0; j < n; j++ {
					rv, rok := ref.Dequeue()
					if !rok || buf[j] != rv {
						t.Fatalf("segSize=%d step %d: batch elem %d = %d, want (%d,%v)",
							segSize, i, j, buf[j], rv, rok)
					}
				}
				if n < k && ref.Len() != 0 {
					t.Fatalf("segSize=%d step %d: batch stopped at %d/%d with %d left",
						segSize, i, n, k, ref.Len())
				}
			case 2:
				ref.Enqueue(next)
				q.Enqueue(0, next)
				next++
			default:
				v, ok := q.Dequeue(1)
				rv, rok := ref.Dequeue()
				if ok != rok || v != rv {
					t.Fatalf("segSize=%d step %d: got (%d,%v), want (%d,%v)", segSize, i, v, ok, rv, rok)
				}
			}
		}
		if q.Len() != ref.Len() {
			t.Fatalf("segSize=%d: Len %d, want %d", segSize, q.Len(), ref.Len())
		}
	}
}

// TestRecyclingBoundedMemory is the bounded-memory claim as a test: a
// long steady-state pairs run over small segments must recycle segments
// through the pool instead of allocating — Allocated stays a small
// constant while Reused grows with the boundary crossings — and the
// live chain never grows past the steady-state handful.
func TestRecyclingBoundedMemory(t *testing.T) {
	q := New[int64](1, 16)
	for i := int64(0); i < 16*200; i++ {
		q.Enqueue(0, i)
		if v, ok := q.Dequeue(0); !ok || v != i {
			t.Fatalf("pair %d: got (%d,%v)", i, v, ok)
		}
	}
	st := q.Stats()
	if st.Reused == 0 {
		t.Fatalf("no pool reuse after 200 boundary crossings: %+v", st)
	}
	// The steady state needs two segments: one draining, one filling. A
	// third covers two collections emptying the pool mid-run. Under the
	// race detector the pool drops a quarter of its Puts, so there most,
	// not all, crossings must reuse.
	if (!raceEnabled && st.Allocated > 3) || st.Allocated > st.Reused {
		t.Fatalf("steady state kept allocating segments: %+v", st)
	}
	if st.LiveSegments > 2 {
		t.Fatalf("live chain grew: %+v", st)
	}
	if st.Recycled == 0 || st.DeqBurns != 0 || st.EnqRetries != 0 {
		t.Fatalf("unexpected slow-lane traffic in sequential run: %+v", st)
	}
}

// TestBacklogRefillReusesSegments: the segments a drained backlog
// leaves behind are reused by the next refill. Collection is off for
// the test, so nothing empties the pool between cycles: the second
// 64-segment fill+drain allocates no segment, and a whole cycle makes
// no heap allocation at all.
func TestBacklogRefillReusesSegments(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a random share of Puts")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const segSize, segs = 16, 64
	q := New[int64](1, segSize)
	// Fill and drain the root segment first, so every cycle starts at a
	// full tail segment and spans exactly segs fresh ones.
	for i := int64(0); i < segSize; i++ {
		q.Enqueue(0, i)
		q.Dequeue(0)
	}
	cycle := func() {
		for i := int64(0); i < segSize*segs; i++ {
			q.Enqueue(0, i)
		}
		for i := int64(0); i < segSize*segs; i++ {
			if v, ok := q.Dequeue(0); !ok || v != i {
				t.Fatalf("drain %d: got (%d,%v)", i, v, ok)
			}
		}
	}
	cycle()
	first := q.Stats()
	cycle()
	second := q.Stats()
	if second.Allocated != first.Allocated {
		t.Fatalf("refill allocated %d segments: first %+v, second %+v",
			second.Allocated-first.Allocated, first, second)
	}
	if second.Reused-first.Reused != segs {
		t.Fatalf("refill reused %d segments, want %d: %+v", second.Reused-first.Reused, segs, second)
	}
	if allocs := testing.AllocsPerRun(5, cycle); allocs != 0 {
		t.Fatalf("backlog fill+drain cycle allocates: %v allocs/run", allocs)
	}
}

// TestZeroAllocSteadyState is the hot-path allocation regression gate:
// steady-state enqueue/dequeue pairs — including segment boundary
// crossings, which take their segment from the queue's pool — must not
// allocate.
func TestZeroAllocSteadyState(t *testing.T) {
	q := New[int64](1, 64)
	// Warm the pool past the first boundary crossings.
	for i := int64(0); i < 64*8; i++ {
		q.Enqueue(0, i)
		q.Dequeue(0)
	}
	if allocs := testing.AllocsPerRun(2000, func() {
		q.Enqueue(0, 7)
		q.Dequeue(0)
	}); allocs != 0 {
		t.Fatalf("steady-state pair allocates: %v allocs/op", allocs)
	}
	vs := make([]int64, 8)
	dst := make([]int64, 8)
	if allocs := testing.AllocsPerRun(500, func() {
		q.EnqueueBatch(0, vs)
		q.DequeueBatch(0, dst)
	}); allocs != 0 {
		t.Fatalf("steady-state batch pair allocates: %v allocs/op", allocs)
	}
}

// TestConcurrentConservation is the stress test scripts/check.sh runs
// under the race detector: producers and consumers over small segments,
// with every enqueued value delivered exactly once and the queue empty
// after a final drain.
func TestConcurrentConservation(t *testing.T) {
	const (
		producers = 4
		consumers = 4
		perProd   = 3000
	)
	q := New[int64](producers+consumers, 32)
	var got sync.Map
	var deqCount int64
	var mu sync.Mutex
	var prodWG, consWG sync.WaitGroup
	done := make(chan struct{})
	for p := 0; p < producers; p++ {
		prodWG.Add(1)
		go func(tid int) {
			defer prodWG.Done()
			vs := make([]int64, 4)
			for i := 0; i < perProd; i += len(vs) {
				for j := range vs {
					vs[j] = int64(tid)<<32 | int64(i+j)
				}
				if i%3 == 0 {
					q.EnqueueBatch(tid, vs)
				} else {
					for _, v := range vs {
						q.Enqueue(tid, v)
					}
				}
			}
		}(p)
	}
	for c := 0; c < consumers; c++ {
		consWG.Add(1)
		go func(tid int) {
			defer consWG.Done()
			dst := make([]int64, 4)
			record := func(v int64) {
				if _, dup := got.LoadOrStore(v, true); dup {
					t.Errorf("value %d delivered twice", v)
				}
				mu.Lock()
				deqCount++
				mu.Unlock()
			}
			for {
				select {
				case <-done:
					return
				default:
				}
				if tid%2 == 0 {
					if v, ok := q.Dequeue(tid); ok {
						record(v)
					}
				} else {
					n := q.DequeueBatch(tid, dst)
					for i := 0; i < n; i++ {
						record(dst[i])
					}
				}
			}
		}(producers + c)
	}
	// Once producers finish, consumers keep draining until everything has
	// been delivered, then stop.
	prodWG.Wait()
	const total = producers * perProd
	for {
		mu.Lock()
		n := deqCount
		mu.Unlock()
		if n >= total {
			break
		}
	}
	close(done)
	consWG.Wait()
	if v, ok := q.Dequeue(0); ok {
		t.Fatalf("queue not empty after conservation: got %d", v)
	}
	if deqCount != total {
		t.Fatalf("conservation: %d delivered, want %d", deqCount, total)
	}
}

// TestTidBounds checks the tid guard.
func TestTidBounds(t *testing.T) {
	q := New[int64](2, 8)
	for _, tid := range []int{-1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("tid %d: no panic", tid)
				}
			}()
			q.Enqueue(tid, 1)
		}()
	}
}

// TestSlotLayout pins the slot at one control word plus the value: the
// state and the reservation identity share the word, so a word-sized
// element costs 16 bytes per slot.
func TestSlotLayout(t *testing.T) {
	if n := unsafe.Sizeof(slot[uint64]{}); n != 16 {
		t.Fatalf("slot[uint64] is %d bytes, want 16", n)
	}
}

// TestStatsFootprint checks the memory accounting surface.
func TestStatsFootprint(t *testing.T) {
	q := New[int64](1, 128)
	st := q.Stats()
	if st.SegSize != 128 || st.LiveSegments != 1 || st.Allocated != 1 {
		t.Fatalf("fresh stats: %+v", st)
	}
	// The header's three padded blocks (enqIdx, deqIdx, next+life) and
	// the slots' slice header, then 128 slots of one word plus an int64.
	want := int64(3*sepBytes+unsafe.Sizeof([]slot[int64](nil))) + 128*16
	if st.SegmentBytes != want {
		t.Fatalf("segment footprint %d bytes, want %d: %+v", st.SegmentBytes, want, st)
	}
	if d := New[int64](1, 0); d.SegSize() != DefaultSegSize {
		t.Fatalf("default segSize = %d", d.SegSize())
	}
}
