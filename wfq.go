// Package wfq is a wait-free multi-producer multi-consumer FIFO queue for
// Go — an implementation of Kogan & Petrank, "Wait-Free Queues With
// Multiple Enqueuers and Dequeuers" (PPoPP 2011), with the paper's
// optimizations, enhancements, and hazard-pointer memory-management
// variant, plus the baselines it was evaluated against.
//
// # Why wait-free
//
// Lock-free queues (Michael–Scott and its descendants) guarantee that
// SOME thread always makes progress, but any particular thread can starve
// indefinitely. This queue guarantees that EVERY operation completes in a
// bounded number of steps regardless of how other threads are scheduled —
// the property needed under real-time deadlines, SLAs, or badly skewed
// schedulers. The price is a helping protocol: faster threads finish the
// operations of slower ones.
//
// # Thread identities
//
// The algorithm requires each concurrently operating thread to hold a
// distinct small integer id below the bound passed to New. Two styles are
// supported:
//
//   - Explicit tids: call Enqueue/Dequeue with a tid you manage yourself
//     (e.g. a worker-pool index).
//   - Handles: call Handle() to lease a tid from the queue's built-in
//     wait-free renaming namespace — the right choice for dynamically
//     created goroutines. Release the handle when the goroutine stops
//     using the queue.
//
// # Choosing a variant
//
// Use the default (both optimizations, matching the paper's best
// performer "opt WF (1+2)") unless you are studying the algorithm.
// VariantBase is the paper's §3.2 reference version; the single-
// optimization variants exist for the Figure 9 ablation.
//
// When raw throughput at low-to-moderate contention matters more than
// the helping protocol's bookkeeping, select Fast (via WithFastPath):
// each operation first runs a bounded number of direct lock-free
// attempts — the Michael–Scott shape, no phase or descriptor — and only
// publishes a descriptor and enters the helping machinery after
// exhausting its patience. Every operation still completes in a bounded
// number of steps, so wait-freedom is preserved; the fast attempts just
// make the uncontended case as cheap as the lock-free baseline.
//
// # Quick start
//
//	q := wfq.New[string](8) // up to 8 concurrent threads
//	h, _ := q.Handle()
//	defer h.Release()
//	h.Enqueue("job-1")
//	if v, ok := h.Dequeue(); ok {
//		fmt.Println(v)
//	}
package wfq

import (
	"wfq/internal/core"
	"wfq/internal/phase"
	"wfq/internal/ring"
	"wfq/internal/sharded"
	"wfq/internal/tid"
	"wfq/internal/waiter"
)

// Variant selects the algorithm flavour; see the package documentation.
type Variant = core.Variant

// Algorithm variants (the series names of the paper's figures).
const (
	// Base is the paper's §3.2 algorithm: phase by state-array scan,
	// help-everyone traversal.
	Base Variant = core.VariantBase
	// Opt1 helps at most one other thread per operation (§3.3 opt 1).
	Opt1 Variant = core.VariantOpt1
	// Opt2 uses a CAS-based shared phase counter (§3.3 opt 2).
	Opt2 Variant = core.VariantOpt2
	// Opt12 combines both optimizations (the default and the paper's
	// recommended configuration).
	Opt12 Variant = core.VariantOpt12
	// Fast is the fast-path/slow-path engine: bounded lock-free
	// attempts, then the Opt12 helping machinery. Usually selected via
	// WithFastPath rather than WithVariant.
	Fast Variant = core.VariantFast
)

// Option configures a queue built by New or NewHP. An option that does
// not apply to the selected engine makes the constructor panic with the
// option's name.
type Option func(*config)

// config is one construction's resolved option list.
type config struct {
	core     []core.Option // the linked engines' settings, in order
	linked   string        // the first linked-engine-only option's name
	gcOnly   string        // the first option only New's engine honours
	patience int           // WithFastPath's resolved patience; 0 without it
	shards   int
	ringSeg  int
	ring     bool
	poolCap  int // NewHP's per-thread free-list bound
}

// link records a setting that only the linked-node engines (New's
// default engine, NewHP) understand; WithRing rejects it by name.
func (c *config) link(name string, o core.Option) {
	c.core = append(c.core, o)
	if c.linked == "" {
		c.linked = name
	}
}

// linkGC records a linked-engine setting that NewHP's engine does not
// honour either; NewHP rejects it by name.
func (c *config) linkGC(name string, o core.Option) {
	c.link(name, o)
	if c.gcOnly == "" {
		c.gcOnly = name
	}
}

// WithVariant selects an algorithm variant.
func WithVariant(v Variant) Option {
	return func(c *config) { c.linkGC("WithVariant", core.WithVariant(v)) }
}

// WithHelpChunk sets how many state entries an Opt1/Opt12 operation
// scans for helping candidates (default 1).
func WithHelpChunk(k int) Option {
	return func(c *config) { c.linkGC("WithHelpChunk", core.WithHelpChunk(k)) }
}

// WithRandomHelping switches Opt1/Opt12 helping-candidate choice from
// cyclic to random (probabilistic wait-freedom, §3.3).
func WithRandomHelping() Option {
	return func(c *config) { c.linkGC("WithRandomHelping", core.WithRandomHelping()) }
}

// WithClearOnExit makes finished operations drop their node references
// so completed threads pin no queue memory.
func WithClearOnExit() Option {
	return func(c *config) { c.linkGC("WithClearOnExit", core.WithClearOnExit()) }
}

// WithDescriptorCache reuses descriptor allocations whose publication
// CAS failed.
func WithDescriptorCache() Option {
	return func(c *config) { c.linkGC("WithDescriptorCache", core.WithDescriptorCache()) }
}

// WithPhaseProvider overrides the Opt2/Opt12 phase source.
func WithPhaseProvider(p phase.Provider) Option {
	return func(c *config) { c.linkGC("WithPhaseProvider", core.WithPhaseProvider(p)) }
}

// WithValidationChecks skips already-satisfied completion CASes (§3.3
// performance-tuning enhancement).
func WithValidationChecks() Option {
	return func(c *config) { c.linkGC("WithValidationChecks", core.WithValidationChecks()) }
}

// WithMetrics attaches internal event counters (help traffic, CAS
// failures); read them via the core Queue's Metrics method when
// constructing through internal/core directly.
func WithMetrics() Option {
	return func(c *config) { c.linkGC("WithMetrics", core.WithMetrics()) }
}

// WithArena block-allocates queue nodes from per-thread arena segments
// of blockSize nodes (<= 0 selects the default, 64), so steady-state
// allocations drop to roughly one per blockSize enqueues. Nodes are
// never reused on the GC variant, only batched; see internal/pool for
// the ownership rules.
func WithArena(blockSize int) Option {
	return func(c *config) { c.link("WithArena", core.WithArena(blockSize)) }
}

// WithFastPath selects the Fast variant: up to patience direct
// lock-free attempts per operation before falling back to the wait-free
// helping protocol (patience <= 0 selects the default). With WithRing
// the same patience bounds the ring's fast path before its helping slow
// path engages.
func WithFastPath(patience int) Option {
	if patience <= 0 {
		patience = core.DefaultPatience
	}
	return func(c *config) {
		c.core = append(c.core, core.WithFastPath(patience))
		c.patience = patience
	}
}

// WithShards(n) puts a wait-free ticket dispatcher in front of n
// independent shards, each running the configured engine. Ordering
// weakens from one FIFO to per-shard FIFO (ticket residue classes), and
// Dequeue's empty result becomes per-ticket: n consecutive empty
// results with no active producer prove the queue empty. In exchange
// the hot head/tail words and the helping state-array are split n ways.
// n <= 1 means unsharded. See the Sharding section of README.md and
// ALGORITHM.md.
func WithShards(n int) Option { return func(c *config) { c.shards = n } }

// WithRing(segSize) replaces the linked-node engine with the
// ring-segment storage backend (internal/ring): elements live in
// contiguous slot segments claimed by one fetch-and-add per operation,
// segments are chained only at the boundary, and retired segments
// recycle through a per-queue pool, so a drained backlog is reused by
// the next refill — zero steady-state allocations and cache-sequential
// access. A slot is one control word plus the element (16 bytes for a
// word-sized T). segSize <= 0 selects the default (1024 slots). Ordering stays a single FIFO; progress is wait-free: after a
// bounded number of fast-path attempts an operation publishes a helping
// record and peers finish it from its ticket — see ALGORITHM.md,
// "Wait-free ring helping". Composes with WithShards and WithFastPath;
// the linked-engine options (WithVariant, WithArena, ...) are rejected,
// and so is WithRing itself on NewHP.
func WithRing(segSize int) Option {
	return func(c *config) { c.ring, c.ringSeg = true, segSize }
}

// resolve applies opts after the given defaults.
func resolve(opts []Option, defaults ...core.Option) *config {
	c := &config{core: make([]core.Option, 0, len(defaults)+len(opts))}
	c.core = append(c.core, defaults...)
	for _, o := range opts {
		o(c)
	}
	return c
}

// engine is the storage engine behind the public API: a linked KP
// queue (core.Queue, core.HPQueue), the ring (ring.Queue), or the
// sharded dispatcher over n of them (sharded.Queue).
type engine[T any] interface {
	Enqueue(tid int, v T)
	Dequeue(tid int) (v T, ok bool)
	EnqueueBatch(tid int, vs []T)
	DequeueBatch(tid int, dst []T) int
	Len() int
	NumThreads() int
}

func newLinked[T any](n int, c *config) engine[T] { return core.New[T](n, c.core...) }

func newHP[T any](n int, c *config) engine[T] { return core.NewHP[T](n, c.poolCap, 0, c.core...) }

func newRing[T any](n int, c *config) engine[T] {
	if c.patience > 0 {
		return ring.New[T](n, c.ringSeg, ring.WithPatience(c.patience))
	}
	return ring.New[T](n, c.ringSeg)
}

// Queue is a wait-free MPMC FIFO queue of T. Create one with New, or
// with NewHP for the hazard-pointer engine.
//
// With WithShards(n), n > 1, the queue runs n independent shards behind
// a wait-free ticket dispatcher; ordering is then FIFO per shard rather
// than globally, and Dequeue's empty result is per-ticket — see
// WithShards.
type Queue[T any] struct {
	e   engine[T]
	reg *tid.Registry

	// Blocking/lifecycle plumbing (see blocking.go): the gate is the
	// queue's waiter set + close state (the sharded engine's own gate
	// when sharded, so its drain mask sees the close); src is the
	// waiter.Source view of the engine; cycle is the residue-coverage
	// bound of the park-loop recheck (the shard count; 1 unsharded).
	g     *waiter.Gate
	src   waiter.BatchSource[T]
	cycle int
}

// New creates a queue supporting up to maxThreads concurrently operating
// threads, using the Opt12 variant unless overridden by options.
// maxThreads is an upper bound, not an exact count; it also sizes the
// Handle namespace. It panics if WithRing is combined with a
// linked-engine option.
func New[T any](maxThreads int, opts ...Option) *Queue[T] {
	c := resolve(opts, core.WithVariant(Opt12))
	if !c.ring {
		return build(maxThreads, c, newLinked[T])
	}
	if c.linked != "" {
		panic("wfq: " + c.linked + " does not apply to WithRing")
	}
	return build(maxThreads, c, newRing[T])
}

// NewHP creates a queue over the hazard-pointer engine (§3.4 of the
// paper): nodes are recycled through per-thread pools of at most
// poolCap nodes (0 selects the default) instead of being left to the
// garbage collector, demonstrating — and testing — the discipline a
// runtime without GC would need. For ordinary Go use, prefer New. Of
// the engine options, WithFastPath and WithArena are honoured; it
// composes with WithShards and panics naming any other option.
func NewHP[T any](maxThreads, poolCap int, opts ...Option) *Queue[T] {
	c := resolve(opts)
	if c.ring {
		panic("wfq: WithRing does not apply to NewHP")
	}
	if c.gcOnly != "" {
		panic("wfq: " + c.gcOnly + " does not apply to NewHP")
	}
	c.poolCap = poolCap
	return build(maxThreads, c, newHP[T])
}

// build wraps one engine, or the ticket dispatcher over c.shards of
// them, in the facade.
func build[T any](maxThreads int, c *config, newEngine func(int, *config) engine[T]) *Queue[T] {
	q := &Queue[T]{reg: tid.NewRegistry(maxThreads), cycle: 1}
	if c.shards > 1 {
		shards := make([]sharded.Shard[T], c.shards)
		for i := range shards {
			shards[i] = newEngine(maxThreads, c)
		}
		sh := sharded.New[T](maxThreads, shards)
		q.e, q.g, q.src, q.cycle = sh, sh.Gate(), sh, sh.Shards()
		return q
	}
	q.e = newEngine(maxThreads, c)
	q.g = waiter.NewGate(maxThreads)
	q.src = (*singleSource[T])(q)
	return q
}

// MaxThreads reports the queue's concurrency bound.
func (q *Queue[T]) MaxThreads() int { return q.e.NumThreads() }

// MaxObservedPhase reports the largest phase number currently published
// in the engine's helping state (max across shards when sharded). It
// exists for the chaos watchdog's §3.3 wrap guard — see phase.MaxSafe —
// and for monitoring; values are racy snapshots.
func (q *Queue[T]) MaxObservedPhase() int64 {
	if p, ok := q.e.(interface{ MaxObservedPhase() int64 }); ok {
		return p.MaxObservedPhase()
	}
	return 0
}

// PoolStats reports the hazard-pointer engine's node reuse counters
// (hits, allocator misses, drops) on an unsharded NewHP queue; zeros
// otherwise.
func (q *Queue[T]) PoolStats() (hits, misses, drops int64) {
	if p, ok := q.e.(interface{ PoolStats() (int64, int64, int64) }); ok {
		return p.PoolStats()
	}
	return 0, 0, 0
}

// Shards reports the shard count (1 when unsharded).
func (q *Queue[T]) Shards() int { return q.cycle }

// Enqueue inserts v at the tail on behalf of thread tid. tid must be in
// [0, MaxThreads()) and must not be used concurrently by another
// goroutine (use Handle for automatic management). Enqueue on a closed
// queue panics, like a send on a closed channel; use TryEnqueue when
// racing Close is expected.
func (q *Queue[T]) Enqueue(tid int, v T) {
	if err := q.TryEnqueue(tid, v); err != nil {
		panic("wfq: Enqueue on closed queue")
	}
}

// Dequeue removes and returns the oldest element on behalf of thread tid.
// ok is false when the queue was empty at the operation's linearization
// point. On a sharded queue "empty" refers to the shard the operation's
// ticket dispatched it to; see WithShards.
func (q *Queue[T]) Dequeue(tid int) (v T, ok bool) { return q.e.Dequeue(tid) }

// EnqueueBatch inserts vs in order on behalf of thread tid, atomically
// with respect to position: unsharded, the values are pre-linked into a
// node chain and enter the queue with ONE linearizing CAS, so they
// occupy consecutive FIFO positions with nothing interleaved — and the
// whole batch costs one descriptor publish at most. On a sharded queue
// the batch costs one dispatch ticket fetch-and-add, fans out round-
// robin over consecutive tickets, and each shard's portion is appended
// as one chain; contiguity then holds within each shard's FIFO.
// Like Enqueue, it panics on a closed queue; use TryEnqueueBatch when
// racing Close is expected.
func (q *Queue[T]) EnqueueBatch(tid int, vs []T) {
	if err := q.TryEnqueueBatch(tid, vs); err != nil {
		panic("wfq: EnqueueBatch on closed queue")
	}
}

// DequeueBatch removes up to len(dst) elements into dst, returning how
// many were obtained. Unsharded, it is a fast-path multi-claim plus
// single dequeues — each removal linearizes individually, the batch form
// just amortizes the per-call setup; it stops early only on an empty
// observation. On a sharded queue the batch claims len(dst) consecutive
// dispatch tickets with one fetch-and-add — probing len(dst) consecutive
// shards, so a batch of Shards() slots samples every shard once.
func (q *Queue[T]) DequeueBatch(tid int, dst []T) int { return q.e.DequeueBatch(tid, dst) }

// ShardDepths reports a racy snapshot of each shard's element count; a
// single-element slice when unsharded. Monitoring and tests only.
func (q *Queue[T]) ShardDepths() []int {
	if sh, ok := q.e.(interface{ ShardDepths() []int }); ok {
		return sh.ShardDepths()
	}
	return []int{q.e.Len()}
}

// Len reports a racy snapshot of the number of queued elements. O(n);
// intended for monitoring and tests, not synchronization.
func (q *Queue[T]) Len() int { return q.e.Len() }

// Handle leases a thread id from the queue's renaming namespace and
// returns a Handle bound to this queue. It fails with tid.ErrExhausted
// when maxThreads goroutines concurrently hold handles.
func (q *Queue[T]) Handle() (*Handle[T], error) {
	h, err := q.reg.Acquire()
	if err != nil {
		return nil, err
	}
	return &Handle[T]{q: q, h: h}, nil
}

// Handle is a leased per-goroutine identity on a Queue. A Handle must not
// be shared between goroutines that operate concurrently; Release it when
// done so the id returns to the namespace.
type Handle[T any] struct {
	q *Queue[T]
	h tid.Handle
}

// TID exposes the underlying thread id (useful for logging/debugging).
func (h *Handle[T]) TID() int { return h.h.TID() }

// Enqueue inserts v at the tail.
func (h *Handle[T]) Enqueue(v T) { h.q.Enqueue(h.h.TID(), v) }

// Dequeue removes and returns the oldest element; ok is false when the
// queue was empty.
func (h *Handle[T]) Dequeue() (v T, ok bool) { return h.q.Dequeue(h.h.TID()) }

// EnqueueBatch inserts vs in order; see Queue.EnqueueBatch.
func (h *Handle[T]) EnqueueBatch(vs []T) { h.q.EnqueueBatch(h.h.TID(), vs) }

// DequeueBatch removes up to len(dst) elements into dst; see
// Queue.DequeueBatch.
func (h *Handle[T]) DequeueBatch(dst []T) int { return h.q.DequeueBatch(h.h.TID(), dst) }

// Release returns the leased id. The Handle must not be used afterwards.
// The lease's generation is retired before the id re-enters the
// namespace and the queue's waiter set is then broadcast, so a waiter
// still parked under this lease (a DequeueCtx in flight on another
// goroutine — itself a misuse, but one this layer contains) wakes,
// fails its liveness check, and returns ErrReleased instead of
// consuming wakeups addressed to the id's next holder.
func (h *Handle[T]) Release() {
	h.h.Release()
	h.q.g.Broadcast()
}
