package qsvc

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"wfq"
)

// The tests in this file pin the incarnation stamp of a re-armed
// completion record: Session.EnqueueWait re-arms its session's record
// once the previous request completed, and a tombstone, a heap entry or
// an abort that still names an old incarnation must not act on the new
// one.

// rearmFixture is a queue with a producer and a consumer session.
type rearmFixture struct {
	t          *testing.T
	reg        *Registry[int64]
	q          *Queue[int64]
	prod, cons *Session[int64]
}

func newRearmFixture(t *testing.T, cfg Config) *rearmFixture {
	t.Helper()
	reg := NewRegistry[int64]()
	q, err := reg.Create("rearm", cfg)
	if err != nil {
		t.Fatal(err)
	}
	prod, err := q.Session()
	if err != nil {
		t.Fatal(err)
	}
	cons, err := q.Session()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { prod.Release(); cons.Release() })
	return &rearmFixture{t: t, reg: reg, q: q, prod: prod, cons: cons}
}

// enqueueWait starts prod.EnqueueWait(v, deadline) and returns once the
// request is visible, with the channel its result arrives on.
func (f *rearmFixture) enqueueWait(v int64, deadline time.Duration) <-chan error {
	f.t.Helper()
	want := f.q.Stats().Admitted + 1
	res := make(chan error, 1)
	go func() { res <- f.prod.EnqueueWait(context.Background(), v, deadline) }()
	for end := time.Now().Add(10 * time.Second); f.q.Stats().Admitted < want; runtime.Gosched() {
		if time.Now().After(end) {
			f.t.Fatal("enqueue-and-wait never published")
		}
	}
	return res
}

// result waits for an EnqueueWait result.
func (f *rearmFixture) result(res <-chan error) error {
	f.t.Helper()
	select {
	case err := <-res:
		return err
	case <-time.After(10 * time.Second):
		f.t.Fatal("enqueue-and-wait never completed")
		return nil
	}
}

// rec reports the producer's record and its incarnation seq.
func (f *rearmFixture) rec() (*Req, uint64) {
	r := f.prod.rec
	if r == nil {
		f.t.Fatal("the producer session holds no record")
	}
	return r, r.state.Load() >> stBits
}

// TestStaleTombstoneSkipsRearmedRecord: the tombstone of an expired
// request, dequeued after the session re-armed its record, is discarded
// and does not claim the new incarnation.
func TestStaleTombstoneSkipsRearmedRecord(t *testing.T) {
	f := newRearmFixture(t, Config{})
	res := f.enqueueWait(1, time.Millisecond)
	if n := f.q.Sweep(time.Now().Add(time.Minute)); n != 1 {
		t.Fatalf("sweep expired %d, want 1", n)
	}
	if err := f.result(res); !errors.Is(err, wfq.ErrDeadlineExceeded) {
		t.Fatalf("first request: got %v, want ErrDeadlineExceeded", err)
	}
	r1, seq1 := f.rec()

	res = f.enqueueWait(2, time.Hour)
	if r2, seq2 := f.rec(); r2 != r1 || seq2 != seq1+1 {
		t.Fatalf("record not re-armed in place: same=%v seq %d -> %d", r2 == r1, seq1, seq2)
	}
	// The queue holds the tombstone of 1, then 2.
	if v, ok := f.cons.TryDequeue(); !ok || v != 2 {
		t.Fatalf("dequeue: got %d ok=%v, want 2 (the tombstone of 1 must be discarded)", v, ok)
	}
	if err := f.result(res); err != nil {
		t.Fatalf("second request: got %v, want delivered", err)
	}
	st := f.q.Stats()
	if st.Tombstones != 1 || st.Delivered != 1 || st.Expired != 1 || st.Depth != 0 || st.Inflight != 0 {
		t.Fatalf("stats %+v: want 1 tombstone, 1 delivered, 1 expired, nothing live", st)
	}
}

// TestStaleHeapEntryDoesNotExpireRearmed: a delivered incarnation's heap
// entry, reaching the top after the record was re-armed with a later
// deadline, is popped as stale and does not expire the live request
// early.
func TestStaleHeapEntryDoesNotExpireRearmed(t *testing.T) {
	f := newRearmFixture(t, Config{})
	res := f.enqueueWait(1, time.Millisecond)
	if v, ok := f.cons.TryDequeue(); !ok || v != 1 {
		t.Fatalf("dequeue: got %d ok=%v, want 1", v, ok)
	}
	if err := f.result(res); err != nil {
		t.Fatalf("first request: got %v, want delivered", err)
	}

	res = f.enqueueWait(2, time.Hour)
	if n := f.q.ArmedPending(); n != 2 {
		t.Fatalf("heap holds %d entries, want the stale one and the live one", n)
	}
	// Past the stale entry's deadline, far before the live one's.
	if n := f.q.Sweep(time.Now().Add(time.Minute)); n != 0 {
		t.Fatalf("sweep expired %d, want 0: a stale heap entry expired the re-armed request", n)
	}
	if n := f.q.ArmedPending(); n != 1 {
		t.Fatalf("heap holds %d entries after the sweep, want the live one", n)
	}
	if v, ok := f.cons.TryDequeue(); !ok || v != 2 {
		t.Fatalf("dequeue: got %d ok=%v, want 2", v, ok)
	}
	if err := f.result(res); err != nil {
		t.Fatalf("second request: got %v, want delivered", err)
	}
	if st := f.q.Stats(); st.Delivered != 2 || st.Expired != 0 {
		t.Fatalf("stats %+v: want 2 delivered, 0 expired", st)
	}
}

// TestDeleteAbortsOnlyLiveIncarnation: Delete's abort walks a heap that
// still holds a delivered incarnation's entry beside the re-armed one;
// it completes the live incarnation exactly once, and the record ends
// in the live incarnation's aborted state.
func TestDeleteAbortsOnlyLiveIncarnation(t *testing.T) {
	f := newRearmFixture(t, Config{})
	res := f.enqueueWait(1, time.Minute)
	if v, ok := f.cons.TryDequeue(); !ok || v != 1 {
		t.Fatalf("dequeue: got %d ok=%v, want 1", v, ok)
	}
	if err := f.result(res); err != nil {
		t.Fatalf("first request: got %v, want delivered", err)
	}

	// The stale entry's deadline is the earlier one, so the abort meets
	// it first.
	res = f.enqueueWait(2, time.Hour)
	r, seq := f.rec()
	if err := f.reg.Delete("rearm"); err != nil {
		t.Fatal(err)
	}
	if err := f.result(res); !errors.Is(err, wfq.ErrClosed) {
		t.Fatalf("second request: got %v, want ErrClosed", err)
	}
	if w := r.state.Load(); w != seq<<stBits|stAborted {
		t.Fatalf("record word %#x, want incarnation %d aborted (%#x)", w, seq, seq<<stBits|stAborted)
	}
	if n := len(r.done); n != 0 {
		t.Fatalf("%d extra tokens on the record: an incarnation completed twice", n)
	}
	st := f.q.Stats()
	if st.Aborted != 1 || st.Delivered != 1 || st.Inflight != 0 || st.Depth != 0 {
		t.Fatalf("stats %+v: want 1 aborted, 1 delivered, nothing live", st)
	}
}

// TestAdmissionRejectionKeepsRecord: admission refuses an
// enqueue-and-wait before arming the session's record, so the record is
// kept and the next request re-arms it.
func TestAdmissionRejectionKeepsRecord(t *testing.T) {
	f := newRearmFixture(t, Config{MaxDepth: 1})
	if _, err := f.cons.Enqueue(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.prod.EnqueueWait(context.Background(), 1, time.Hour); !errors.Is(err, wfq.ErrAdmission) {
		t.Fatalf("got %v, want ErrAdmission", err)
	}
	r, seq := f.rec()
	if seq != 0 {
		t.Fatalf("a rejected request armed the record (seq %d)", seq)
	}
	if v, ok := f.cons.TryDequeue(); !ok || v != 0 {
		t.Fatalf("dequeue: got %d ok=%v, want 0", v, ok)
	}
	res := f.enqueueWait(2, time.Hour)
	if r2, seq2 := f.rec(); r2 != r || seq2 != 1 {
		t.Fatalf("record not kept after the rejection: same=%v seq %d", r2 == r, seq2)
	}
	if v, ok := f.cons.TryDequeue(); !ok || v != 2 {
		t.Fatalf("dequeue: got %d ok=%v, want 2", v, ok)
	}
	if err := f.result(res); err != nil {
		t.Fatalf("second request: got %v, want delivered", err)
	}
}
