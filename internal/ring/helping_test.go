package ring

import (
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"wfq/internal/model"
	"wfq/internal/xrand"
	"wfq/internal/yield"
)

// TestSlowPathSequentialFIFO forces every operation through the helping
// slow path (patience 0) and checks FIFO + emptiness against the
// sequential model across segment sizes that cross boundaries constantly.
// Single-threaded, the slow path must behave exactly like the fast one:
// publish, claim, reserve, finalize, promote — same linearization.
func TestSlowPathSequentialFIFO(t *testing.T) {
	for _, segSize := range []int{1, 2, 8, 0} {
		q := New[int64](2, segSize, WithPatience(0))
		var ref model.Queue
		rng := xrand.New(uint64(segSize)*31 + 3)
		for i := 0; i < 4000; i++ {
			if rng.Next()%3 != 0 {
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
		st := q.Stats()
		if st.SlowEnqs == 0 || st.SlowDeqs == 0 {
			t.Fatalf("segSize=%d: patience 0 never took the slow path: %+v", segSize, st)
		}
	}
}

// TestSlowPathBatchVsModel runs the batch/single mix with every element
// forced through the slow path.
func TestSlowPathBatchVsModel(t *testing.T) {
	q := New[int64](2, 4, WithPatience(0))
	var ref model.Queue
	rng := xrand.New(99)
	next := int64(0)
	buf := make([]int64, 16)
	for i := 0; i < 1500; i++ {
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
					t.Fatalf("step %d: batch elem %d = %d, want (%d,%v)", i, j, buf[j], rv, rok)
				}
			}
			if n < k && ref.Len() != 0 {
				t.Fatalf("step %d: batch stopped at %d/%d with %d left", i, n, k, ref.Len())
			}
		case 2:
			ref.Enqueue(next)
			q.Enqueue(0, next)
			next++
		default:
			v, ok := q.Dequeue(1)
			rv, rok := ref.Dequeue()
			if ok != rok || v != rv {
				t.Fatalf("step %d: got (%d,%v), want (%d,%v)", i, v, ok, rv, rok)
			}
		}
	}
	if q.Len() != ref.Len() {
		t.Fatalf("Len %d, want %d", q.Len(), ref.Len())
	}
	if st := q.Stats(); st.SlowEnqs == 0 {
		t.Fatalf("batches never hit the slow path: %+v", st)
	}
}

// TestSlowPathConservation is the concurrent exactly-once check with the
// slow path maximally engaged: patience 0 (every op publishes a record,
// every dequeuer claim lands on reserved slots) over tiny segments, so
// reserve/finalize/promote race with burns and boundary crossings on
// nearly every operation. Run under -race by scripts/check.sh.
func TestSlowPathConservation(t *testing.T) {
	for _, patience := range []int{0, 1} {
		const (
			producers = 4
			consumers = 4
			perProd   = 1500
		)
		q := New[int64](producers+consumers, 8, WithPatience(patience))
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
						t.Errorf("patience %d: value %d delivered twice", patience, v)
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
			t.Fatalf("patience %d: queue not empty after conservation: got %d", patience, v)
		}
		if deqCount != total {
			t.Fatalf("patience %d: conservation: %d delivered, want %d", patience, deqCount, total)
		}
		if st := q.Stats(); st.SlowEnqs == 0 || st.SlowDeqs == 0 {
			t.Fatalf("patience %d: slow path never engaged: %+v", patience, st)
		}
	}
}

// TestZeroAllocSlowPath is the helping allocation regression gate: with
// patience 0 every operation publishes a record, assigns a ticket, and
// walks every new yield point (hook-free) — and must still allocate
// nothing. Records are pre-allocated per tid in New; tickets and
// identity words are packed uint64s. The window crosses a segment
// boundary every 64 pairs, and each retired segment carried tickets: it
// is recycled like any other, so no crossing allocates a segment. One P
// throughout, as inside AllocsPerRun: a pooled segment parked in another
// P's private slot would look like a miss.
func TestZeroAllocSlowPath(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	q := New[int64](1, 64, WithPatience(0))
	for i := int64(0); i < 64*8; i++ {
		q.Enqueue(0, i)
		q.Dequeue(0)
	}
	before := q.Stats()
	if allocs := testing.AllocsPerRun(2000, func() {
		q.Enqueue(0, 7)
		q.Dequeue(0)
	}); allocs != 0 {
		t.Fatalf("slow-path pair allocates: %v allocs/op", allocs)
	}
	vs := make([]int64, 8)
	dst := make([]int64, 8)
	if allocs := testing.AllocsPerRun(500, func() {
		q.EnqueueBatch(0, vs)
		q.DequeueBatch(0, dst)
	}); allocs != 0 {
		t.Fatalf("slow-path batch pair allocates: %v allocs/op", allocs)
	}
	st := q.Stats()
	if st.SlowEnqs == 0 || st.SlowDeqs == 0 {
		t.Fatalf("measured window never took the slow path: %+v", st)
	}
	// The race detector's pool drops a share of Puts, so only a plain
	// build holds the segment count exactly.
	if !raceEnabled && (st.Allocated != before.Allocated || st.Dropped != 0) {
		t.Fatalf("ticketed crossings allocated segments: before %+v, after %+v", before, st)
	}
	if st.Recycled == before.Recycled {
		t.Fatalf("measured window recycled no segment: %+v", st)
	}
}

// TestHelpingOptions checks the option plumbing: defaults, explicit
// patience, the DefaultPatience sentinel, and the lock-free opt-out.
func TestHelpingOptions(t *testing.T) {
	if q := New[int64](1, 8); !q.Helping() || q.Patience() != DefaultPatience {
		t.Fatalf("defaults: helping=%v patience=%d", q.Helping(), q.Patience())
	}
	if q := New[int64](1, 8, WithPatience(3)); !q.Helping() || q.Patience() != 3 {
		t.Fatalf("WithPatience(3): helping=%v patience=%d", q.Helping(), q.Patience())
	}
	if q := New[int64](1, 8, WithPatience(-1)); q.Patience() != DefaultPatience {
		t.Fatalf("WithPatience(-1): patience=%d", q.Patience())
	}
	q := New[int64](2, 8, WithoutHelping())
	if q.Helping() {
		t.Fatal("WithoutHelping left helping on")
	}
	// Lock-free configuration must never touch the helping machinery.
	for i := int64(0); i < 100; i++ {
		q.Enqueue(0, i)
		if v, ok := q.Dequeue(1); !ok || v != i {
			t.Fatalf("pair %d: got (%d,%v)", i, v, ok)
		}
	}
	if st := q.Stats(); st.SlowEnqs != 0 || st.SlowDeqs != 0 || st.HelpFinalizes != 0 {
		t.Fatalf("lock-free config engaged helping: %+v", st)
	}
}

// TestReservedWordRoundTrip checks the reserved slot word at the edges
// of its fields: every (tid, seq) decodes to itself and reads reserved
// in the state bits. Then it drives one record's seq across its wrap on
// the slow path. At each reserve the slot word must name the request
// that the record's ctl word holds pending, 2^45-1 and then 0, so a
// claimant's compare of the two is exact across the wrap.
func TestReservedWordRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		tid int
		seq uint64
	}{
		{0, 0}, {1, 1}, {maxThreads - 1, 0}, {0, seqMask}, {maxThreads - 1, seqMask}, {0x5a5a, 1 << 44},
	} {
		w := reservedWord(tc.tid, tc.seq)
		if w&slotMask != slotReserved {
			t.Fatalf("reservedWord(%#x, %#x) = %#x: state bits %d, want reserved", tc.tid, tc.seq, w, w&slotMask)
		}
		if tid, seq := reservedBy(w); tid != tc.tid || seq != tc.seq {
			t.Fatalf("reservedBy(reservedWord(%#x, %#x)) = (%#x, %#x)", tc.tid, tc.seq, tid, seq)
		}
	}
	if seqMask != 1<<45-1 {
		t.Fatalf("seq wraps at %#x, want 2^45", seqMask+1)
	}

	const owner = 1
	q := New[int64](2, 4, WithPatience(0))
	rec := &q.recs[owner]
	rec.seq = seqMask - 1
	var seen []uint64
	prev := yield.Set(func(p yield.Point, caller, _ int) {
		if p != yield.RGHelpFinalize || caller != owner {
			return
		}
		// The owner's reserve CAS has just run on its ticket's slot.
		sl := &rec.tSeg.Load().slots[ticketIdx(rec.tPub.Load())]
		w := sl.word.Load()
		tid, seq := reservedBy(w)
		if w&slotMask != slotReserved || tid != owner || rec.ctl.Load() != ctlWord(seq, hsEnqPending) {
			t.Errorf("slot word %#x (tid %d, seq %#x) does not name the pending ctl %#x", w, tid, seq, rec.ctl.Load())
		}
		seen = append(seen, seq)
	})
	q.Enqueue(owner, 5)
	q.Enqueue(owner, 6)
	yield.Set(prev)
	if len(seen) != 2 || seen[0] != seqMask || seen[1] != 0 {
		t.Fatalf("reserved seqs %#x, want [%#x 0]", seen, seqMask)
	}
	for _, want := range []int64{5, 6} {
		if v, ok := q.Dequeue(0); !ok || v != want {
			t.Fatalf("drain = (%d,%v), want (%d,true)", v, ok, want)
		}
	}

	// The ticket counter wraps at 43 bits without touching the kind bit.
	for _, deq := range []bool{false, true} {
		w := packTicket(deq, 1<<43|9, 3)
		if ticketIsDeq(w) != deq || ticketIdx(w) != 3 || w != packTicket(deq, 9, 3) {
			t.Fatalf("packTicket(%v, 2^43+9, 3) = %#x", deq, w)
		}
	}
}

// TestResolveReservedActsOnTheWordSeen calls resolveReserved the way a
// claimant that branched on a reserved word and then stalled would: by
// the time it runs, the reservation was promoted and consumed and its
// request closed. It must decide from the word it was given, not from
// the slot's current word: the stale request is not pending, so nothing
// is finalized, and the promote CAS from the stale word fails, leaving
// the consumed slot consumed. A second stale call while the owner's
// next request is pending must leave that request alone too.
func TestResolveReservedActsOnTheWordSeen(t *testing.T) {
	const owner, claimant = 0, 1
	q := New[int64](2, 4, WithPatience(0))
	rec := &q.recs[owner]
	q.Enqueue(owner, 42)
	stale := reservedWord(owner, rec.seq)
	sl := &q.head.Load().slots[0]
	if v, ok := q.Dequeue(claimant); !ok || v != 42 {
		t.Fatalf("dequeue = (%d,%v), want (42,true)", v, ok)
	}
	ctl := rec.ctl.Load()
	q.resolveReserved(claimant, sl, stale)
	if w := sl.word.Load(); w != slotConsumed {
		t.Fatalf("stale resolve moved a consumed slot to %#x", w)
	}
	if got := rec.ctl.Load(); got != ctl {
		t.Fatalf("stale resolve changed the record's ctl %#x -> %#x", ctl, got)
	}

	// The owner's next request is pending at its ticket; a resolve from
	// the previous request's word must not finalize it.
	pending := rec.seq + 1
	var stuck bool
	prev := yield.Set(func(p yield.Point, caller, _ int) {
		if p == yield.RGHelpTicket && caller == owner && !stuck {
			stuck = true
			q.resolveReserved(claimant, sl, stale)
			if got := rec.ctl.Load(); got != ctlWord(pending, hsEnqPending) {
				t.Errorf("stale resolve decided the next request: ctl %#x", got)
			}
		}
	})
	q.Enqueue(owner, 43)
	yield.Set(prev)
	if st := q.Stats(); st.HelpFinalizes != 0 {
		t.Fatalf("stale resolves finalized a request: %+v", st)
	}
	if v, ok := q.Dequeue(claimant); !ok || v != 43 {
		t.Fatalf("dequeue = (%d,%v), want (43,true)", v, ok)
	}
}
