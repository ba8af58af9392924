package wfq

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wfq/internal/yield"
)

// These tests pin the close/drain protocol of a WithShards queue: the
// facade's lifecycle layer over the sharded engine's shared drain mask.

func TestTrackedEnqueueFailsAfterClose(t *testing.T) {
	q := New[int](4, WithShards(2))
	if _, err := q.TryEnqueueTicket(0, 1); err != nil {
		t.Fatalf("open TryEnqueueTicket: %v", err)
	}
	if err := q.TryEnqueueBatch(0, []int{2, 3}); err != nil {
		t.Fatalf("open TryEnqueueBatch: %v", err)
	}
	if err := q.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := q.TryEnqueueTicket(0, 4); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed TryEnqueueTicket: %v", err)
	}
	if err := q.TryEnqueueBatch(0, []int{5}); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed TryEnqueueBatch: %v", err)
	}
	if err := q.TryEnqueue(0, 6); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed TryEnqueue: %v", err)
	}
}

// TestPerShardFIFOPreservedThroughDrain: the close-driven drain must not
// reorder any shard's elements — ticket order within a shard is FIFO all
// the way out.
func TestPerShardFIFOPreservedThroughDrain(t *testing.T) {
	const nshards = 4
	q := New[uint64](2, WithShards(nshards))
	var byShard [nshards][]uint64
	for i := uint64(0); i < 64; i++ {
		// A fresh queue with one producer hands out tickets in order.
		tkt, err := q.TryEnqueueTicket(0, i)
		if err != nil || tkt != i {
			t.Fatalf("TryEnqueueTicket(%d) = (%d, %v)", i, tkt, err)
		}
		byShard[tkt%nshards] = append(byShard[tkt%nshards], i)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	// Single drainer: every per-shard subsequence must come out in order.
	var got []uint64
	ctx := context.Background()
	for {
		v, err := q.DequeueCtx(ctx, 1)
		if err != nil {
			if !errors.Is(err, ErrClosed) {
				t.Fatal(err)
			}
			break
		}
		got = append(got, v)
	}
	if len(got) != 64 {
		t.Fatalf("drained %d of 64", len(got))
	}
	pos := map[uint64]int{}
	for i, v := range got {
		pos[v] = i
	}
	for s, vals := range byShard {
		for i := 1; i < len(vals); i++ {
			if pos[vals[i-1]] > pos[vals[i]] {
				t.Fatalf("shard %d: %d drained after %d", s, vals[i-1], vals[i])
			}
		}
	}
}

// TestMultiConsumerCloseDrainTerminates is the shared-drain-mask
// regression: several blocking consumers interleaving over a multi-shard
// queue must ALL terminate with ErrClosed after the elements run out —
// even though each individual consumer may never personally observe
// every shard empty (another consumer's miss counts for it).
func TestMultiConsumerCloseDrainTerminates(t *testing.T) {
	const consumers, nshards, elems = 4, 8, 2000
	q := New[int](consumers+1, WithShards(nshards))
	for i := 0; i < elems; i++ {
		if _, err := q.TryEnqueueTicket(consumers, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	var delivered atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for {
				_, err := q.DequeueCtx(context.Background(), tid)
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("consumer %d: %v", tid, err)
					}
					return
				}
				delivered.Add(1)
			}
		}(c)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("drain did not terminate: consumers hung on a closed empty queue")
	}
	if delivered.Load() != elems {
		t.Fatalf("delivered %d of %d", delivered.Load(), elems)
	}
	if !q.src.Drained() {
		t.Fatal("Drained false after all consumers exited")
	}
}

// TestCloseDrainWithFrozenTicketHolder is the chaos regression for the
// sharded engine's prime starvation suspect: a consumer that
// performed its dequeue ticket fetch-and-add and then froze before the
// shard pop. Its ticket is burned and "points at" an element, but the
// close/drain protocol must not wait for it: Close returns, the live
// consumers drain every element and reach ErrClosed via the shared
// drain mask (their own tickets cover every residue), and the released
// victim finds its shard empty without corrupting the drained state.
// Run under -race by the tier-1 gate.
func TestCloseDrainWithFrozenTicketHolder(t *testing.T) {
	const producer, victim, cons1, cons2, elems = 0, 1, 2, 3, 20
	q := New[int](4, WithShards(2))
	for i := 0; i < elems; i++ {
		if err := q.TryEnqueue(producer, i); err != nil {
			t.Fatal(err)
		}
	}

	parked := make(chan struct{})
	resume := make(chan struct{})
	var once sync.Once
	prev := yield.Set(func(p yield.Point, caller, _ int) {
		if p == yield.SHDeqTicket && caller == victim {
			once.Do(func() {
				close(parked)
				<-resume
			})
		}
	})
	defer yield.Set(prev)

	victimGot := make(chan bool, 1)
	go func() {
		_, ok := q.Dequeue(victim) // ticket 0; freezes before the shard pop
		victimGot <- ok
	}()
	<-parked

	// Close must return promptly: it waits only for tracked enqueues,
	// never for an in-flight dequeue ticket.
	closeDone := make(chan struct{})
	go func() { q.Close(); close(closeDone) }()
	select {
	case <-closeDone:
	case <-time.After(30 * time.Second):
		t.Fatal("Close blocked on a frozen dequeue ticket holder")
	}

	// The live consumers must drain all elements and terminate with
	// ErrClosed while the victim is still frozen mid-dispatch — their
	// consecutive tickets visit both residues, so the shared drain mask
	// completes without the victim's help.
	var delivered atomic.Int64
	var wg sync.WaitGroup
	for _, tid := range []int{cons1, cons2} {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for {
				_, err := q.DequeueCtx(context.Background(), tid)
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("consumer %d: %v", tid, err)
					}
					return
				}
				delivered.Add(1)
			}
		}(tid)
	}
	consDone := make(chan struct{})
	go func() { wg.Wait(); close(consDone) }()
	select {
	case <-consDone:
	case <-time.After(30 * time.Second):
		t.Fatal("live consumers hung behind a frozen ticket holder")
	}
	if got := delivered.Load(); got != elems {
		t.Fatalf("live consumers delivered %d of %d", got, elems)
	}
	if !q.src.Drained() {
		t.Fatal("Drained false after live consumers saw ErrClosed")
	}

	// Release the victim: its pop finds shard 0 empty (the element its
	// ticket named was legitimately overtaken), and — having read its
	// quiescence license before Close — its miss must not disturb the
	// completed drain state.
	close(resume)
	select {
	case ok := <-victimGot:
		if ok {
			t.Fatal("frozen ticket holder conjured an element from a drained queue")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("victim never completed after release")
	}
	if !q.src.Drained() {
		t.Fatal("victim's late miss corrupted the drain mask")
	}
	if q.Len() != 0 {
		t.Fatalf("residual Len=%d", q.Len())
	}
}
