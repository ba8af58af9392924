package core

import (
	"fmt"
	"sync/atomic"

	"wfq/internal/helptree"
	"wfq/internal/phase"
	"wfq/internal/pool"
	"wfq/internal/xrand"
)

// Variant selects which flavour of the algorithm a Queue runs.
type Variant int

// Algorithm variants, matching the series of the paper's figures.
const (
	// VariantBase is the base algorithm of §3.2: maxPhase() scan and
	// help-everyone traversal of the state array.
	VariantBase Variant = iota
	// VariantOpt1 helps at most one other thread per operation, chosen
	// cyclically (optimization 1 of §3.3).
	VariantOpt1
	// VariantOpt2 draws phases from a CAS-bumped shared counter
	// (optimization 2 of §3.3) but keeps help-everyone.
	VariantOpt2
	// VariantOpt12 combines both optimizations — the "opt WF (1+2)"
	// series of Figures 7–9.
	VariantOpt12
	// VariantFast is the fast-path/slow-path execution engine: an
	// operation first runs a bounded number of plain lock-free
	// (Michael–Scott-style) attempts directly on head/tail — no phase,
	// no descriptor, no state-array store — and only on exhausting that
	// patience publishes a descriptor and enters the wait-free helping
	// machinery (which runs the VariantOpt12 slow path). Per-thread step
	// complexity stays bounded, so wait-freedom is preserved, while the
	// uncontended cost matches the lock-free baseline. See ALGORITHM.md,
	// "The fast path".
	VariantFast
)

// String names the variant as the paper's figures do.
func (v Variant) String() string {
	switch v {
	case VariantBase:
		return "base WF"
	case VariantOpt1:
		return "opt WF (1)"
	case VariantOpt2:
		return "opt WF (2)"
	case VariantOpt12:
		return "opt WF (1+2)"
	case VariantFast:
		return "fast WF"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Option configures a Queue beyond its Variant.
type Option func(*config)

type config struct {
	variant     Variant
	helpChunk   int
	patience    int
	block       int
	helpTree    bool
	helpTreeSet bool
	randomHelp  bool
	clearOnExit bool
	descCache   bool
	metrics     bool
	validate    bool
	phases      phase.Provider
}

// DefaultPatience is the number of lock-free fast-path attempts an
// operation makes before falling back to the wait-free helping protocol
// when WithFastPath is enabled without an explicit patience. Large enough
// that transient contention rarely forces the fallback, small enough that
// the per-operation step bound stays tight.
const DefaultPatience = 8

// WithVariant selects the algorithm variant (default VariantBase).
func WithVariant(v Variant) Option { return func(c *config) { c.variant = v } }

// WithFastPath selects VariantFast and sets its patience: the number of
// bounded lock-free attempts Enqueue/Dequeue make on the head/tail before
// publishing a descriptor and entering the wait-free helping protocol.
// patience <= 0 selects DefaultPatience. The fast path linearizes at the
// same CASes as the slow path (the Line 74 append, the Line 135 deqTid
// claim), so the two paths compose into a single linearizable history;
// the bounded patience preserves wait-freedom.
func WithFastPath(patience int) Option {
	return func(c *config) {
		c.variant = VariantFast
		if patience <= 0 {
			patience = DefaultPatience
		}
		c.patience = patience
	}
}

// WithHelpChunk sets k, the number of state-array entries a VariantOpt1/
// VariantOpt12 operation examines for helping (§3.3 allows any 1 ≤ k < n;
// the paper's evaluation uses k = 1, the default).
func WithHelpChunk(k int) Option { return func(c *config) { c.helpChunk = k } }

// WithHelpTree attaches the tournament-tree announcement structure
// (internal/helptree) to the helping slow path: a slow-path operation
// announces its (phase, tid) in a per-thread leaf and propagates the
// minimum toward the root; helpers find the oldest pending operation by
// an O(log n) root-to-leaf descent instead of relying solely on the
// cyclic cursor probe. The cursor probe is kept as a deterministic
// backstop (every record is still visited within n gated entries), so
// the Opt1 helping guarantee is preserved while helpers converge on the
// oldest phase — the polylog-helping direction of Naderibeni & Ruppert.
//
// The tree is a hint: linearizability never depends on it (help targets
// re-validate against the real descriptor), it only changes whom a
// helper assists first. Applies to VariantOpt1/Opt12/Fast; the
// help-everyone variants (Base, Opt2) ignore it — they are the paper's
// reference algorithms and keep the verbatim scan. Default: on for
// VariantFast, off otherwise.
func WithHelpTree() Option {
	return func(c *config) { c.helpTree, c.helpTreeSet = true, true }
}

// WithoutHelpTree disables the helptree even for VariantFast, restoring
// the pure cursor-probe helping (the pre-tree behaviour, useful for
// before/after measurement).
func WithoutHelpTree() Option {
	return func(c *config) { c.helpTree, c.helpTreeSet = false, true }
}

// WithRandomHelping makes VariantOpt1/VariantOpt12 pick helping
// candidates at random instead of cyclically — the §3.3 alternative:
// "each thread might traverse a random chunk of the array, achieving
// probabilistic wait-freedom". Each thread draws from its own seeded
// splitmix64 stream, so runs remain reproducible.
func WithRandomHelping() Option { return func(c *config) { c.randomHelp = true } }

// WithValidationChecks enables the third §3.3 enhancement: "we might
// check whether the pending flag is already switched off before applying
// CAS in Lines 93 or 149". When another helper already completed the
// descriptor, the (costly) CAS and its descriptor allocation are skipped;
// the tail/head fix still runs. The paper notes such checks "might be
// helpful in performance tuning" but omits them for presentation
// clarity; BenchmarkValidationChecks prices them.
func WithValidationChecks() Option { return func(c *config) { c.validate = true } }

// WithMetrics attaches per-thread event counters (help traffic, CAS
// failures, tail/head fixes) readable through Queue.Metrics. Used by the
// help-traffic experiments; costs one nil-check per counted event when
// disabled and one atomic add when enabled.
func WithMetrics() Option { return func(c *config) { c.metrics = true } }

// WithClearOnExit enables the §3.3 enhancement that installs a dummy
// descriptor (node = nil) when an operation returns, so a finished
// thread's state entry does not keep a dequeued node live for the GC.
func WithClearOnExit() Option { return func(c *config) { c.clearOnExit = true } }

// WithDescriptorCache enables the §3.3 enhancement that reuses descriptor
// allocations whose install-CAS failed. Only never-published descriptors
// are cached, so descriptor pointers can never repeat at a state entry
// (which would reintroduce ABA on the state CASes).
func WithDescriptorCache() Option { return func(c *config) { c.descCache = true } }

// WithPhaseProvider overrides the phase source used by VariantOpt2 and
// VariantOpt12 (default: the paper's CAS counter; phase.NewFAA is the
// fetch-and-add alternative §3.3 mentions).
func WithPhaseProvider(p phase.Provider) Option { return func(c *config) { c.phases = p } }

// nodeBlock is the number of nodes in each thread's allocation block:
// one heap allocation per nodeBlock enqueues. 16 nodes of a word-sized
// element make a 512-byte block. Blocks of 1 KiB and more measurably
// raise the peak heap, because a block stays live while any of its nodes
// is (EXPERIMENTS.md, "Node blocks").
const nodeBlock = 16

// sepBytes is the false-sharing separation unit for the hot per-thread
// and head/tail words: two cache lines, not one, because the adjacent-
// cacheline prefetcher of modern x86 cores pulls lines in 128-byte pairs,
// so 64-byte separation still ping-pongs neighbouring entries. The
// compile-time assertions in padding_test.go keep the struct sizes honest.
const sepBytes = 128

// paddedDesc keeps each thread's state entry on its own cache-line pair;
// the entries are the hottest CAS targets in the algorithm.
type paddedDesc[T any] struct {
	p atomic.Pointer[opDesc[T]]
	_ [sepBytes - 8]byte
}

// paddedCursor holds a thread's private cursors: the helping cursor for
// VariantOpt1/Opt12 (with WithRandomHelping, rng replaces the cyclic
// index), the node allocation block, and the next thread whose block
// the sweep visits.
type paddedCursor[T any] struct {
	i     int
	rng   xrand.SplitMix64
	nodes pool.Arena[node[T]]
	sweep int
	_     [sepBytes - 64]byte
}

// descCacheSlot holds one reusable, never-published descriptor per thread.
type descCacheSlot[T any] struct {
	d *opDesc[T]
	_ [sepBytes - 8]byte
}

// Queue is the Kogan–Petrank wait-free MPMC FIFO queue. Create one with
// New; all methods are safe for concurrent use by up to NumThreads()
// threads with distinct tids.
type Queue[T any] struct {
	headRef atomic.Pointer[node[T]]
	_       [sepBytes - 8]byte
	tailRef atomic.Pointer[node[T]]
	_       [sepBytes - 8]byte
	// slowPending counts operations currently published in the state
	// array (maintained only when the fast path is enabled). The fast
	// path consults it and stands down while it is nonzero: an unbounded
	// stream of fast-path operations never reads the state array, so
	// without this gate it could invalidate a slow-path operation's
	// linearizing CAS forever — a wait-freedom violation (found by the
	// chaos antagonist; see ALGORITHM.md, "Measured wait-freedom"). With
	// the gate, once a slow descriptor is published only the fast
	// operations already past the gate (at most n-1, each bounded by its
	// patience) remain oblivious; every later operation takes the slow
	// path, whose helping protocol completes the stalled operation.
	slowPending atomic.Int32
	_           [sepBytes - 4]byte
	// state is the per-thread operation-descriptor array (Line 26).
	state []paddedDesc[T]
	// cursor drives cyclic help-one candidate selection (VariantOpt1)
	// and holds each thread's node block.
	cursor []paddedCursor[T]
	// cache holds reusable failed-CAS descriptors (WithDescriptorCache).
	cache []descCacheSlot[T]

	nthreads  int
	block     int // nodes per allocation block: nodeBlock outside tests
	variant   Variant
	helpChunk int
	// patience is the fast-path attempt bound; 0 disables the fast path
	// (every operation goes straight to the helping protocol).
	patience    int
	randomHelp  bool
	clearOnExit bool
	useCache    bool
	validate    bool
	// met is non-nil when WithMetrics is set.
	met *Metrics
	// phases is non-nil for VariantOpt2/Opt12.
	phases phase.Provider
	// tree is non-nil when the helptree announcement structure is
	// attached (WithHelpTree; default for VariantFast) — see help().
	tree *helptree.Tree
}

// New creates a queue for up to nthreads concurrent threads (the paper's
// NUM_THRDS — an upper bound, not necessarily tight).
func New[T any](nthreads int, opts ...Option) *Queue[T] {
	if nthreads <= 0 {
		panic("core: nthreads must be positive")
	}
	cfg := config{helpChunk: 1, block: nodeBlock}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.variant == VariantFast && cfg.patience == 0 {
		// WithVariant(VariantFast) without WithFastPath.
		cfg.patience = DefaultPatience
	}
	if cfg.helpChunk < 1 || cfg.helpChunk >= nthreads {
		// §3.3 requires 1 <= k < n; clamp rather than reject so a
		// 1-thread queue still constructs.
		if cfg.helpChunk < 1 {
			cfg.helpChunk = 1
		} else {
			cfg.helpChunk = max(1, nthreads-1)
		}
	}
	q := &Queue[T]{
		state:       make([]paddedDesc[T], nthreads),
		cursor:      make([]paddedCursor[T], nthreads),
		nthreads:    nthreads,
		block:       cfg.block,
		variant:     cfg.variant,
		helpChunk:   cfg.helpChunk,
		patience:    cfg.patience,
		randomHelp:  cfg.randomHelp,
		clearOnExit: cfg.clearOnExit,
		useCache:    cfg.descCache,
		validate:    cfg.validate,
	}
	for i := range q.cursor {
		q.cursor[i].rng = *xrand.NewSplitMix64(uint64(i) + 1)
	}
	if cfg.metrics {
		q.met = newMetrics(nthreads)
	}
	if cfg.descCache {
		q.cache = make([]descCacheSlot[T], nthreads)
	}
	if cfg.variant == VariantOpt2 || cfg.variant == VariantOpt12 || cfg.variant == VariantFast {
		// VariantFast's slow path is the Opt12 machinery: counter-based
		// phases plus help-one traversal.
		q.phases = cfg.phases
		if q.phases == nil {
			q.phases = phase.NewCAS()
		}
	}
	if !cfg.helpTreeSet {
		cfg.helpTree = cfg.variant == VariantFast
	}
	if cfg.helpTree && cfg.variant != VariantBase && cfg.variant != VariantOpt2 {
		q.tree = helptree.New(nthreads)
	}
	// Constructor, Lines 27–35: one sentinel node; every state entry
	// starts with a non-pending descriptor at phase -1.
	var zero T
	sentinel := newNode(zero, noTID)
	q.headRef.Store(sentinel)
	q.tailRef.Store(sentinel)
	for i := range q.state {
		q.state[i].p.Store(&opDesc[T]{phase: -1, pending: false, enqueue: true})
	}
	return q
}

// NumThreads reports the queue's thread capacity.
func (q *Queue[T]) NumThreads() int { return q.nthreads }

// Metrics returns the event counters, or nil unless the queue was built
// with WithMetrics.
func (q *Queue[T]) Metrics() *Metrics { return q.met }

// VariantOf reports the configured algorithm variant.
func (q *Queue[T]) VariantOf() Variant { return q.variant }

// Patience reports the fast-path attempt bound (0 when the fast path is
// disabled).
func (q *Queue[T]) Patience() int { return q.patience }

// Name implements the harness's Named interface.
func (q *Queue[T]) Name() string { return q.variant.String() }

func (q *Queue[T]) checkTid(tid int) {
	if tid < 0 || tid >= q.nthreads {
		panic(fmt.Sprintf("core: tid %d out of range [0,%d)", tid, q.nthreads))
	}
}

// maxPhase scans the state array for the largest published phase —
// Lines 48–57.
func (q *Queue[T]) maxPhase() int64 {
	maxPh := int64(-1)
	for i := range q.state {
		if ph := q.state[i].p.Load().phase; ph > maxPh {
			maxPh = ph
		}
	}
	return maxPh
}

// nextPhase chooses the phase for a new operation: maxPhase()+1 for the
// scan-based variants (Line 62/99), or a counter bump for Opt2/Opt12.
func (q *Queue[T]) nextPhase() int64 {
	if q.phases != nil {
		return q.phases.Next()
	}
	return q.maxPhase() + 1
}

// MaxObservedPhase reports the largest phase currently published in the
// state array. Diagnostic: the chaos watchdog asserts it stays far below
// the §3.3 64-bit wrap horizon (see internal/phase).
func (q *Queue[T]) MaxObservedPhase() int64 { return q.maxPhase() }

// fastAllowed reports whether thread tid may run the lock-free fast path
// right now: the fast path is configured AND no slow-path operation is
// currently published (see the slowPending field comment).
func (q *Queue[T]) fastAllowed(tid int) bool {
	if q.patience <= 0 {
		return false
	}
	if q.slowPending.Load() != 0 {
		q.met.incGateSkip(tid)
		return false
	}
	return true
}

// isStillPending reports whether thread tid has a pending operation at a
// phase not exceeding ph — Lines 58–60.
func (q *Queue[T]) isStillPending(tid int, ph int64) bool {
	d := q.state[tid].p.Load()
	return d.pending && d.phase <= ph
}

// stillPending is the snapshot form used where the caller already loaded
// the descriptor and must act on that exact version.
func stillPending[T any](d *opDesc[T], ph int64) bool {
	return d.pending && d.phase <= ph
}

// newDesc allocates a descriptor, reusing caller's cached never-published
// descriptor when the cache enhancement is on. chain is the batch chain
// tail carried by enqueue-completion descriptors (nil otherwise).
func (q *Queue[T]) newDesc(caller int, ph int64, pending, enqueue bool, n, chain *node[T]) *opDesc[T] {
	if q.useCache {
		if d := q.cache[caller].d; d != nil {
			q.cache[caller].d = nil
			q.met.incDescCacheHit(caller)
			d.phase, d.pending, d.enqueue, d.node, d.chainTail = ph, pending, enqueue, n, chain
			var zero T
			d.value, d.hasValue = zero, false
			return d
		}
		q.met.incDescCacheMiss(caller)
	}
	return &opDesc[T]{phase: ph, pending: pending, enqueue: enqueue, node: n, chainTail: chain}
}

// allocNode builds a node for thread tid's enqueue, bump-allocated from
// the thread's block. Block memory is zeroed, so next is already nil,
// but a zero deqTid would read as "claimed by thread 0".
//
// Each new block pays for one step of a second-chance sweep over the
// threads' blocks. A block whose thread made no enqueue between two
// visits is dropped: otherwise an idle thread's block, through its
// dequeued nodes' next pointers, would keep every node enqueued after
// them reachable (ALGORITHM.md, "Node blocks").
func (q *Queue[T]) allocNode(tid int, v T, enqTid int32) *node[T] {
	c := &q.cursor[tid]
	n, fresh := c.nodes.Get(q.block)
	if fresh {
		q.cursor[c.sweep].nodes.Reclaim()
		c.sweep = (c.sweep + 1) % q.nthreads
	}
	n.value, n.enqTid = v, enqTid
	n.deqTid.Store(noTID)
	return n
}

// ArenaStats reports (blocks allocated, nodes handed out) summed over the
// threads' node blocks.
func (q *Queue[T]) ArenaStats() (blocks, gets int64) {
	for i := range q.cursor {
		b, g := q.cursor[i].nodes.Stats()
		blocks, gets = blocks+b, gets+g
	}
	return blocks, gets
}

// recycleDesc returns a descriptor whose install-CAS failed (and which was
// therefore never visible to any other thread) to caller's cache slot.
func (q *Queue[T]) recycleDesc(caller int, d *opDesc[T]) {
	if q.useCache {
		q.cache[caller].d = d
	}
}
