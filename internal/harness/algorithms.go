// Package harness implements the paper's §4 evaluation methodology: the
// two benchmark workloads (enqueue-dequeue pairs and 50% enqueues), the
// thread-count sweeps, repetition with averaging, the scheduler profiles
// standing in for the paper's three OS configurations, and the space-
// overhead experiment of Figure 10.
package harness

import (
	"fmt"

	"wfq"
	"wfq/internal/core"
	"wfq/internal/msqueue"
	"wfq/internal/queues"
	"wfq/internal/ring"
	"wfq/internal/sharded"
	"wfq/internal/universal"
)

// Algorithm names a queue implementation and knows how to build a fresh
// instance for a given thread bound.
type Algorithm struct {
	// Name matches the series labels of the paper's figures where
	// applicable ("LF", "base WF", "opt WF (1+2)", ...).
	Name string
	// New builds a fresh queue for up to nthreads threads.
	New func(nthreads int) queues.Queue
	// Shards is the shard count of a sharded frontend (0 for single
	// queues). Sharded algorithms provide per-shard FIFO rather than
	// single-FIFO semantics; drivers that verify FIFO order consult this
	// (and the queues.Ticketed interface) to pick the right oracle.
	Shards int
}

// msAdapter fits the tid-less Michael–Scott queues to the common
// interface.
type msAdapter struct{ q *msqueue.Queue[int64] }

func (a msAdapter) Enqueue(_ int, v int64) { a.q.Enqueue(v) }
func (a msAdapter) Dequeue(_ int) (int64, bool) {
	return a.q.Dequeue()
}

type twoLockAdapter struct{ q *msqueue.TwoLockQueue[int64] }

func (a twoLockAdapter) Enqueue(_ int, v int64) { a.q.Enqueue(v) }
func (a twoLockAdapter) Dequeue(_ int) (int64, bool) {
	return a.q.Dequeue()
}

// LF is the Michael–Scott lock-free baseline of every figure.
func LF() Algorithm {
	return Algorithm{Name: "LF", New: func(int) queues.Queue {
		return msAdapter{q: msqueue.New[int64]()}
	}}
}

// BaseWF is the paper's base algorithm (§3.2).
func BaseWF() Algorithm {
	return Algorithm{Name: "base WF", New: func(n int) queues.Queue {
		return core.New[int64](n)
	}}
}

// OptWF1 applies only optimization 1 (help-one, cyclic). The opt-WF
// constructors also enable the §3.3 descriptor-cache enhancement and the
// event counters, so the bench summaries can report cache hit/miss rates
// (the counters cost one predictable nil-check + atomic add per event).
func OptWF1() Algorithm {
	return Algorithm{Name: "opt WF (1)", New: func(n int) queues.Queue {
		return core.New[int64](n, core.WithVariant(core.VariantOpt1),
			core.WithDescriptorCache(), core.WithMetrics())
	}}
}

// OptWF2 applies only optimization 2 (atomic phase counter).
func OptWF2() Algorithm {
	return Algorithm{Name: "opt WF (2)", New: func(n int) queues.Queue {
		return core.New[int64](n, core.WithVariant(core.VariantOpt2),
			core.WithDescriptorCache(), core.WithMetrics())
	}}
}

// OptWF12 applies both optimizations — the "opt WF (1+2)" series.
func OptWF12() Algorithm {
	return Algorithm{Name: "opt WF (1+2)", New: func(n int) queues.Queue {
		return core.New[int64](n, core.WithVariant(core.VariantOpt12),
			core.WithDescriptorCache(), core.WithMetrics())
	}}
}

// FastWF is the fast-path/slow-path engine: each operation runs up to
// its patience of direct lock-free attempts (the Michael–Scott shape —
// no phase, no descriptor) and enters the Opt12 helping machinery only
// after exhausting them. Wait-free with the lock-free baseline's
// uncontended cost.
func FastWF() Algorithm {
	return Algorithm{Name: "fast WF", New: func(n int) queues.Queue {
		return core.New[int64](n, core.WithFastPath(0),
			core.WithDescriptorCache(), core.WithMetrics())
	}}
}

// FastWFArena is fast WF backed by the arena node allocator: slow-path
// (and batch-chain) nodes come from per-thread bump-allocated blocks
// instead of individual makes. The allocs/op delta against FastWF is the
// arena's whole value proposition; see results/BENCH_batch.json.
func FastWFArena() Algorithm {
	return Algorithm{Name: "fast WF (arena)", New: func(n int) queues.Queue {
		return core.New[int64](n, core.WithFastPath(0), core.WithArena(0),
			core.WithDescriptorCache(), core.WithMetrics())
	}}
}

// RingWF is the ring-segment storage backend (internal/ring): contiguous
// FAA-claimed slot segments instead of linked nodes — the cache-shaped
// engine. Single FIFO, zero steady-state allocations, wait-free: after
// DefaultPatience failed fast-path attempts an operation publishes a
// helping record and peers finish it from its ticket (see the ring
// package comment and ALGORITHM.md, "Wait-free ring helping").
func RingWF() Algorithm {
	return Algorithm{Name: "ring WF", New: func(n int) queues.Queue {
		return ring.New[int64](n, 0)
	}}
}

// RingLF is the ring backend with helping disabled — the PR-6 lock-free
// configuration, kept as the baseline that prices the helping machinery
// (the fast paths are identical; only the record table, the slow gate
// check, and the patience counter differ).
func RingLF() Algorithm {
	return Algorithm{Name: "ring LF", New: func(n int) queues.Queue {
		return ring.New[int64](n, 0, ring.WithoutHelping())
	}}
}

// ShardedRingWF is the sharded ticket dispatcher over ring-segment
// shards — both FAA layers stacked: one FAA to pick the shard, one FAA
// to claim the slot.
func ShardedRingWF() Algorithm {
	return Algorithm{Name: "sharded ring WF", Shards: shardedDefault, New: func(n int) queues.Queue {
		return newSharded(n, func() sharded.Shard[int64] { return ring.New[int64](n, 0) })
	}}
}

// BlockingRingWF is the public facade over the ring backend with the
// blocking/lifecycle layer wired (close-aware enqueue, parking
// DequeueCtx, Close-driven drain) — the WithRing acceptance
// configuration of the blocking workloads.
func BlockingRingWF() Algorithm {
	return Algorithm{Name: "blocking ring WF", New: func(n int) queues.Queue {
		return wfq.New[int64](n, wfq.WithRing(0))
	}}
}

// FastWFHP is the fast-path engine on the hazard-pointer variant
// (extended benchmarks only). Its pool miss path is arena-backed.
func FastWFHP() Algorithm {
	return Algorithm{Name: "fast WF+HP", New: func(n int) queues.Queue {
		return core.NewHP[int64](n, 0, 0, core.WithFastPath(0), core.WithArena(0))
	}}
}

// newSharded builds the stock sharded frontend for up to n threads:
// shardedDefault shards from newShard behind one ticket dispatcher.
func newSharded(n int, newShard func() sharded.Shard[int64]) *sharded.Queue[int64] {
	shards := make([]sharded.Shard[int64], shardedDefault)
	for i := range shards {
		shards[i] = newShard()
	}
	return sharded.New[int64](n, shards)
}

// shardedDefault is the shard count of the stock sharded series — the
// issue's acceptance configuration (8 shards × 8 threads).
const shardedDefault = 8

// ShardedWF is the sharded frontend over fast-WF shards: two FAA ticket
// counters round-robin dispatching onto 8 independent fast-path queues.
// Per-shard FIFO only (see internal/sharded); benchmarked against the
// single-queue series to price the helping ceiling it removes.
func ShardedWF() Algorithm {
	return Algorithm{Name: "sharded WF", Shards: shardedDefault, New: func(n int) queues.Queue {
		return newSharded(n, func() sharded.Shard[int64] {
			return core.New[int64](n, core.WithFastPath(0), core.WithDescriptorCache(), core.WithMetrics())
		})
	}}
}

// ShardedWFHP is the sharded frontend over hazard-pointer fast-WF shards
// (extended benchmarks only) — the no-GC build of the sharded series.
func ShardedWFHP() Algorithm {
	return Algorithm{Name: "sharded WF+HP", Shards: shardedDefault, New: func(n int) queues.Queue {
		return newSharded(n, func() sharded.Shard[int64] {
			return core.NewHP[int64](n, 0, 0, core.WithFastPath(0), core.WithArena(0))
		})
	}}
}

// BlockingWF is the public facade over the fast-path queue with the
// blocking/lifecycle layer wired (queues.Lifecycled): close-aware
// enqueue, parking DequeueCtx, Close-driven drain. Its non-blocking ops
// go through the same facade, so benchmarking it against "fast WF"
// prices the lifecycle layer itself.
func BlockingWF() Algorithm {
	return Algorithm{Name: "blocking WF", New: func(n int) queues.Queue {
		return wfq.New[int64](n, wfq.WithFastPath(0), wfq.WithDescriptorCache())
	}}
}

// BlockingShardedWF is the public facade over the sharded frontend:
// gate-tracked enqueues and shared-drain-mask blocking dequeues — the
// configuration of the blocking-workload acceptance experiment.
func BlockingShardedWF() Algorithm {
	return Algorithm{Name: "blocking sharded WF", Shards: shardedDefault, New: func(n int) queues.Queue {
		return ticketedFacade{wfq.New[int64](n, wfq.WithShards(shardedDefault),
			wfq.WithFastPath(0), wfq.WithDescriptorCache())}
	}}
}

// ticketedFacade fits a sharded facade's ticket-returning operations to
// queues.Ticketed, so the checkers partition its histories by shard.
// Everything else — Lifecycled, Batcher — is promoted from the facade.
type ticketedFacade struct{ *wfq.Queue[int64] }

// EnqueueTicket is the tracked enqueue; like Enqueue it panics on a
// closed queue.
func (a ticketedFacade) EnqueueTicket(tid int, v int64) uint64 {
	t, err := a.TryEnqueueTicket(tid, v)
	if err != nil {
		panic("harness: EnqueueTicket on closed queue")
	}
	return t
}

// BaseWFClear is the base algorithm with the §3.3 dummy-descriptor
// enhancement (WithClearOnExit): finished operations drop their node
// references so completed threads pin no queue memory. Its role is the
// space-overhead experiment, where it isolates the "descriptor keeps a
// dequeued node (and the chain behind it) live" effect the paper calls
// out in §3.3.
func BaseWFClear() Algorithm {
	return Algorithm{Name: "base WF (clear)", New: func(n int) queues.Queue {
		return core.New[int64](n, core.WithClearOnExit())
	}}
}

// OptWF12Random is opt WF (1+2) with the §3.3 random-candidate helping
// alternative ("achieving probabilistic wait-freedom"); extended
// benchmarks only.
func OptWF12Random() Algorithm {
	return Algorithm{Name: "opt WF (1+2) rnd", New: func(n int) queues.Queue {
		return core.New[int64](n, core.WithVariant(core.VariantOpt12), core.WithRandomHelping())
	}}
}

// WFHP is the §3.4 hazard-pointer variant (extended benchmarks only).
func WFHP() Algorithm {
	return Algorithm{Name: "base WF+HP", New: func(n int) queues.Queue {
		return core.NewHP[int64](n, 0, 0)
	}}
}

// LFHP is the Michael–Scott queue with hazard-pointer reclamation — the
// lock-free baseline as it would run without a GC (extended benchmarks
// only; prices HP overhead on the LF side of the §3.4 comparison).
func LFHP() Algorithm {
	return Algorithm{Name: "LF+HP", New: func(n int) queues.Queue {
		return msqueue.NewHP[int64](n, 0, 0)
	}}
}

// Universal is Herlihy's wait-free universal construction instantiated
// on the sequential queue — the §2 related-work alternative the paper
// argues is impractical; included so that claim is measurable.
func Universal() Algorithm {
	return Algorithm{Name: "universal WF", New: func(n int) queues.Queue {
		return universal.New(n)
	}}
}

// TwoLock is Michael–Scott's blocking queue (extended benchmarks only).
func TwoLock() Algorithm {
	return Algorithm{Name: "2-lock", New: func(int) queues.Queue {
		return twoLockAdapter{q: msqueue.NewTwoLock[int64]()}
	}}
}

// Mutex is the coarse-lock baseline (extended benchmarks only).
func Mutex() Algorithm {
	return Algorithm{Name: "mutex", New: func(n int) queues.Queue {
		return queues.NewMutexQueue(n)
	}}
}

// Figure7Algorithms returns the three series of Figures 7 and 8.
func Figure7Algorithms() []Algorithm {
	return []Algorithm{LF(), BaseWF(), OptWF12()}
}

// Figure9Algorithms returns the four series of the optimization-impact
// ablation (Figure 9).
func Figure9Algorithms() []Algorithm {
	return []Algorithm{BaseWF(), OptWF12(), OptWF1(), OptWF2()}
}

// AllAlgorithms returns every queue the extended benchmarks cover.
func AllAlgorithms() []Algorithm {
	return []Algorithm{
		LF(), BaseWF(), OptWF1(), OptWF2(), OptWF12(), FastWF(),
		FastWFArena(), RingWF(), RingLF(), ShardedWF(), ShardedRingWF(),
		BlockingWF(), BlockingShardedWF(), BlockingRingWF(),
		OptWF12Random(), BaseWFClear(), WFHP(),
		FastWFHP(), ShardedWFHP(), LFHP(), Universal(), TwoLock(), Mutex(),
	}
}

// ByName finds an algorithm by its label. An unknown label's error lists
// every registered one.
func ByName(name string) (Algorithm, error) {
	var names []string
	for _, a := range AllAlgorithms() {
		if a.Name == name {
			return a, nil
		}
		names = append(names, a.Name)
	}
	return Algorithm{}, fmt.Errorf("unknown algorithm %q (want one of %q)", name, names)
}
