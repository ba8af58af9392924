// Package queues defines the common interface every queue implementation
// in this repository satisfies, plus trivially correct lock-based
// implementations used as baselines and as oracles in differential tests.
//
// All queues in the benchmark suite carry int64 elements, matching the
// paper ("we assume the queue stores integer values"). The generic core
// implementation (internal/core) is instantiated at int64 behind this
// interface by the harness.
package queues

import (
	"context"
	"sync"
)

// Queue is the common concurrent FIFO interface.
//
// tid identifies the calling thread and must lie in [0, n) where n is the
// concurrency bound the queue was created with. Implementations that do
// not need thread identities (the lock-based and lock-free baselines)
// ignore it, so every implementation can be driven by the same harness.
type Queue interface {
	// Enqueue inserts v at the tail. Queues in this repository are
	// unbounded, so Enqueue always succeeds.
	Enqueue(tid int, v int64)
	// Dequeue removes the oldest element. ok is false when the queue
	// was observed empty (the paper's EmptyException).
	Dequeue(tid int) (v int64, ok bool)
}

// Named is implemented by queues that report a human-readable algorithm
// name for benchmark output.
type Named interface {
	Name() string
}

// Ticketed is implemented by sharded frontends (internal/sharded, and
// the harness's adapter over a WithShards facade) whose operations are
// dispatched by ticket. Drivers that need to reason about
// dispatch — the soak tool's drain loop (Shards() consecutive empty
// results prove emptiness once producers are quiescent) and the
// linearizability checker (partition the history by ticket mod Shards())
// — type-assert to this interface and fall back to plain FIFO semantics
// when it is absent.
type Ticketed interface {
	Queue
	// EnqueueTicket is Enqueue returning the dispatch ticket consumed.
	EnqueueTicket(tid int, v int64) uint64
	// DequeueTicket is Dequeue returning the dispatch ticket consumed.
	DequeueTicket(tid int) (v int64, ok bool, ticket uint64)
	// Shards reports the shard count (tickets dispatch mod Shards()).
	Shards() int
}

// Batcher is implemented by queues with first-class batch operations
// (internal/core's chained-node EnqueueBatch and multi-claim
// DequeueBatch, the ring's slot-run claims, the sharded frontend's
// ticket-batch forms, and package wfq's Queue). Drivers that move
// elements in groups — the harness's batch workload — type-assert to
// this interface and fall back to loops of single operations when it is
// absent.
type Batcher interface {
	Queue
	// EnqueueBatch inserts vs in order. On a single queue the batch
	// occupies consecutive FIFO positions; on a sharded frontend it
	// takes consecutive dispatch tickets.
	EnqueueBatch(tid int, vs []int64)
	// DequeueBatch removes up to len(dst) elements into dst, returning
	// how many were obtained.
	DequeueBatch(tid int, dst []int64) int
}

// Lifecycled is implemented by queues with the blocking/lifecycle layer
// (package wfq's Queue, over any engine): close-aware
// enqueue, blocking context-aware dequeue, and Close with
// close-after-drain semantics. Drivers that can terminate consumers by
// closing the queue — the soak tool's drain, the harness's blocking
// workloads — type-assert to this interface and fall back to the
// n-consecutive-empties heuristic when it is absent.
type Lifecycled interface {
	Queue
	// TryEnqueue fails with the queue's ErrClosed after Close,
	// publishing nothing, and wakes blocked dequeuers on success.
	TryEnqueue(tid int, v int64) error
	// DequeueCtx blocks until an element (v, nil), the queue is closed
	// and drained (ErrClosed), or ctx ends (ctx.Err()).
	DequeueCtx(ctx context.Context, tid int) (int64, error)
	// Close closes the queue after waiting for in-flight tracked
	// enqueues; pending elements remain dequeuable.
	Close() error
	// Closed reports whether Close has begun.
	Closed() bool
}

// Factory constructs a fresh queue for up to nthreads concurrent threads.
// The harness creates one queue per benchmark run through a Factory so
// runs never share warmed-up state.
type Factory struct {
	// Label names the algorithm in reports, e.g. "LF" or "base WF".
	Label string
	// New constructs the queue.
	New func(nthreads int) Queue
}

// MutexQueue is a coarse-grained blocking queue: one mutex around a
// growable ring buffer. It is the simplest correct implementation and
// serves as a differential-testing oracle and a lower-bound baseline.
type MutexQueue struct {
	mu   sync.Mutex
	buf  []int64
	head int
	n    int
}

// NewMutexQueue returns an empty MutexQueue. The nthreads argument is
// accepted for Factory compatibility and ignored.
func NewMutexQueue(nthreads int) *MutexQueue {
	_ = nthreads
	return &MutexQueue{}
}

// Name implements Named.
func (q *MutexQueue) Name() string { return "mutex" }

// Enqueue implements Queue.
func (q *MutexQueue) Enqueue(_ int, v int64) {
	q.mu.Lock()
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)%len(q.buf)] = v
	q.n++
	q.mu.Unlock()
}

// Dequeue implements Queue.
func (q *MutexQueue) Dequeue(_ int) (int64, bool) {
	q.mu.Lock()
	if q.n == 0 {
		q.mu.Unlock()
		return 0, false
	}
	v := q.buf[q.head]
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	q.mu.Unlock()
	return v, true
}

// Len reports the current number of elements.
func (q *MutexQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

func (q *MutexQueue) grow() {
	newCap := len(q.buf) * 2
	if newCap == 0 {
		newCap = 16
	}
	buf := make([]int64, newCap)
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf = buf
	q.head = 0
}

// ChanQueue adapts a buffered Go channel to the Queue interface. It is a
// bounded queue (capacity fixed at construction) included as an idiomatic
// Go point of comparison in the extended benchmarks; Enqueue on a full
// ChanQueue blocks, so it is excluded from the paper-figure harness and
// used only where boundedness is acceptable.
type ChanQueue struct {
	ch chan int64
}

// NewChanQueue returns a channel-backed queue with the given capacity.
func NewChanQueue(capacity int) *ChanQueue {
	return &ChanQueue{ch: make(chan int64, capacity)}
}

// Name implements Named.
func (q *ChanQueue) Name() string { return "chan" }

// Enqueue implements Queue; it blocks while the channel is full.
func (q *ChanQueue) Enqueue(_ int, v int64) { q.ch <- v }

// Dequeue implements Queue; it never blocks — an empty channel reports
// ok=false, matching the non-blocking semantics of the other queues.
func (q *ChanQueue) Dequeue(_ int) (int64, bool) {
	select {
	case v := <-q.ch:
		return v, true
	default:
		return 0, false
	}
}

// Len reports the current number of buffered elements.
func (q *ChanQueue) Len() int { return len(q.ch) }
