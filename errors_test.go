package wfq

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"wfq/internal/phase"
	"wfq/internal/ring"
	"wfq/internal/sharded"
)

// TestDeadlineErrorCompat pins the two-way errors.Is contract of the
// typed deadline error: every deadline failure out of the blocking
// layer must satisfy BOTH errors.Is(err, wfq.ErrDeadlineExceeded) and
// errors.Is(err, context.DeadlineExceeded), so callers written against
// either sentinel keep working.
func TestDeadlineErrorCompat(t *testing.T) {
	if !errors.Is(ErrDeadlineExceeded, context.DeadlineExceeded) {
		t.Fatal("ErrDeadlineExceeded must unwrap to context.DeadlineExceeded")
	}
	var ne net.Error
	if !errors.As(ErrDeadlineExceeded, &ne) || !ne.Timeout() {
		t.Fatal("ErrDeadlineExceeded must implement net.Error with Timeout()=true")
	}
	// A wrapped form (the queue-service layer stamps the queue name on
	// top) must still match both sentinels.
	wrapped := fmt.Errorf("request on %q: %w", "orders", ErrDeadlineExceeded)
	if !errors.Is(wrapped, ErrDeadlineExceeded) || !errors.Is(wrapped, context.DeadlineExceeded) {
		t.Fatalf("wrapped deadline error lost a sentinel: %v", wrapped)
	}
}

// TestDequeueCtxDeadlineTyped is the regression test for the facade
// wrapping: DequeueCtx on an empty queue with an expired deadline must
// return the typed error, deadline and cancellation must stay
// distinguishable, and the Handle path must behave identically.
func TestDequeueCtxDeadlineTyped(t *testing.T) {
	for _, tc := range []struct {
		name string
		q    *Queue[int]
	}{
		{name: "core", q: New[int](4)},
		{name: "ring", q: New[int](4, WithRing(0))},
		{name: "sharded", q: New[int](4, WithShards(2))},
		{name: "hp", q: NewHP[int](4, 0)},
		{name: "hp-sharded", q: NewHP[int](4, 0, WithShards(4))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := tc.q

			ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
			defer cancel()
			_, err := q.DequeueCtx(ctx, 0)
			if !errors.Is(err, ErrDeadlineExceeded) {
				t.Fatalf("DequeueCtx deadline: got %v, want wfq.ErrDeadlineExceeded", err)
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("DequeueCtx deadline: got %v, want context.DeadlineExceeded compat", err)
			}
			if _, err := q.DequeueBatchCtx(ctx, 0, make([]int, 4)); !errors.Is(err, ErrDeadlineExceeded) {
				t.Fatalf("DequeueBatchCtx deadline: got %v", err)
			}

			h, errH := q.Handle()
			if errH != nil {
				t.Fatal(errH)
			}
			defer h.Release()
			if _, err := h.DequeueCtx(ctx); !errors.Is(err, ErrDeadlineExceeded) {
				t.Fatalf("Handle.DequeueCtx deadline: got %v", err)
			}

			// Cancellation must NOT be promoted to a deadline error.
			cctx, ccancel := context.WithCancel(context.Background())
			ccancel()
			if _, err := q.DequeueCtx(cctx, 0); !errors.Is(err, context.Canceled) || errors.Is(err, ErrDeadlineExceeded) {
				t.Fatalf("DequeueCtx cancel: got %v, want pure context.Canceled", err)
			}

			// An available element still wins over an expired deadline
			// (the documented element-over-deadline fast path), and the
			// nil-error path is untouched by the wrapping.
			if err := q.TryEnqueue(0, 7); err != nil {
				t.Fatal(err)
			}
			if v, err := q.DequeueCtx(ctx, 0); err != nil || v != 7 {
				t.Fatalf("DequeueCtx with element: got (%v, %v), want (7, nil)", v, err)
			}
		})
	}
}

// TestInapplicableOptionsRejected: an option the selected engine cannot
// honour is a construction panic naming it, never a silent no-op.
func TestInapplicableOptionsRejected(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func()
	}{
		{"WithVariant", func() { New[int](2, WithRing(0), WithVariant(Opt1)) }},
		{"WithHelpChunk", func() { New[int](2, WithHelpChunk(2), WithRing(0)) }},
		{"WithRandomHelping", func() { New[int](2, WithRing(0), WithRandomHelping()) }},
		{"WithClearOnExit", func() { New[int](2, WithRing(0), WithClearOnExit()) }},
		{"WithDescriptorCache", func() { New[int](2, WithRing(0), WithDescriptorCache()) }},
		{"WithPhaseProvider", func() { New[int](2, WithRing(0), WithPhaseProvider(phase.NewFAA())) }},
		{"WithValidationChecks", func() { New[int](2, WithRing(0), WithValidationChecks()) }},
		{"WithMetrics", func() { New[int](2, WithRing(0), WithMetrics()) }},
		{"WithArena", func() { New[int](2, WithShards(2), WithRing(0), WithArena(0)) }},
		{"WithRing", func() { NewHP[int](2, 0, WithRing(0)) }},
		{"WithVariant", func() { NewHP[int](2, 0, WithVariant(Opt1)) }},
		{"WithHelpChunk", func() { NewHP[int](2, 0, WithFastPath(0), WithHelpChunk(2)) }},
		{"WithRandomHelping", func() { NewHP[int](2, 0, WithRandomHelping()) }},
		{"WithClearOnExit", func() { NewHP[int](2, 0, WithArena(0), WithClearOnExit()) }},
		{"WithDescriptorCache", func() { NewHP[int](2, 0, WithDescriptorCache()) }},
		{"WithPhaseProvider", func() { NewHP[int](2, 0, WithPhaseProvider(phase.NewFAA())) }},
		{"WithValidationChecks", func() { NewHP[int](2, 0, WithValidationChecks()) }},
		{"WithMetrics", func() { NewHP[int](2, 0, WithShards(2), WithMetrics()) }},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, tc.name) {
					t.Fatalf("%s: panic %q does not name the option", tc.name, msg)
				}
			}()
			tc.build()
		}()
	}

	// WithFastPath applies to the ring too: its patience bounds the
	// ring's fast path, sharded or not.
	for _, q := range []*Queue[int]{
		New[int](2, WithRing(0), WithFastPath(3)),
		New[int](2, WithFastPath(3), WithRing(0), WithShards(2)),
	} {
		r, ok := q.e.(*ring.Queue[int])
		if sh, isSharded := q.e.(*sharded.Queue[int]); isSharded {
			r, ok = sh.Shard(1).(*ring.Queue[int])
		}
		if !ok || !r.Helping() || r.Patience() != 3 {
			t.Fatalf("engine %T: want a helping ring with patience 3", q.e)
		}
	}
}

// TestDequeueCtxHPDeadlineTyped covers the hazard-pointer frontend's
// wrapping path.
func TestDequeueCtxHPDeadlineTyped(t *testing.T) {
	q := NewHP[int](4, 0)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if _, err := q.DequeueCtx(ctx, 0); !errors.Is(err, ErrDeadlineExceeded) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("HP DequeueCtx deadline: got %v", err)
	}
}

// wrappedDeadlineCtx is a custom context.Context whose Err() returns a
// WRAPPED deadline error rather than the bare sentinel — allowed by the
// context contract, and what a deadline-decorating middleware context
// produces. The facade must classify it with errors.Is, not ==.
type wrappedDeadlineCtx struct{ done chan struct{} }

func (c wrappedDeadlineCtx) Deadline() (time.Time, bool) { return time.Unix(0, 0), true }
func (c wrappedDeadlineCtx) Done() <-chan struct{}       { return c.done }
func (c wrappedDeadlineCtx) Err() error {
	return fmt.Errorf("middleware deadline: %w", context.DeadlineExceeded)
}
func (c wrappedDeadlineCtx) Value(any) any { return nil }

// TestWrapCtxErrWrappedDeadline: a context whose Err() wraps
// context.DeadlineExceeded must still be translated to the typed
// facade error, both at the wrapCtxErr unit level and end-to-end
// through DequeueCtx.
func TestWrapCtxErrWrappedDeadline(t *testing.T) {
	wrapped := fmt.Errorf("middleware deadline: %w", context.DeadlineExceeded)
	if err := wrapCtxErr(wrapped); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("wrapCtxErr(%v) = %v, want ErrDeadlineExceeded classification", wrapped, err)
	}
	// Cancellation must still pass through untouched.
	if err := wrapCtxErr(context.Canceled); !errors.Is(err, context.Canceled) || errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("wrapCtxErr(Canceled) = %v", err)
	}

	done := make(chan struct{})
	close(done)
	q := New[int](2)
	if _, err := q.DequeueCtx(wrappedDeadlineCtx{done: done}, 0); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("DequeueCtx under a wrapping context: got %v, want wfq.ErrDeadlineExceeded", err)
	}
}

// TestAdmissionErrorTyped pins the admission sentinel's identity and
// wrapping behaviour (the queue-service layer is its producer; the
// sentinel itself lives here so clients need only the facade).
func TestAdmissionErrorTyped(t *testing.T) {
	wrapped := fmt.Errorf("enqueue on %q: %w", "orders", ErrAdmission)
	if !errors.Is(wrapped, ErrAdmission) {
		t.Fatalf("wrapped admission error lost the sentinel: %v", wrapped)
	}
	if errors.Is(ErrAdmission, ErrClosed) || errors.Is(ErrAdmission, context.DeadlineExceeded) {
		t.Fatal("ErrAdmission must not alias other sentinels")
	}
}
