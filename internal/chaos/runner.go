package chaos

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wfq/internal/core"
	"wfq/internal/ring"
	"wfq/internal/sharded"
	"wfq/internal/xrand"
	"wfq/internal/yield"
)

// Config selects one chaos run: a frontend scenario, an adversary
// profile, and a workload size.
type Config struct {
	// Scenario is one of AllScenarios (see buildFrontend/runBlocking).
	Scenario string
	Profile  Profile
	// Threads is the worker count (default 8). Ops is the per-live-
	// thread operation quota (default 2000).
	Threads int
	Ops     int
	// Seed derives the adversary's decisions and the workload's op
	// mix. Same seed, same scenario, same profile => same adversary
	// strategy and same op sequence per thread.
	Seed uint64
	// BatchWidth sizes the periodic batch operations (default 4).
	BatchWidth int
	// StallEvery / StallEvents tune RollingStall (see
	// AntagonistConfig); zero picks the defaults.
	StallEvery  uint64
	StallEvents uint64
	// Deadline bounds how long the live threads may take to finish
	// their quotas before the run is declared a liveness violation
	// (default 30s; generous — a healthy run finishes in well under a
	// second).
	Deadline time.Duration
}

func (c *Config) fill() {
	if c.Threads == 0 {
		c.Threads = 8
	}
	if c.Ops == 0 {
		c.Ops = 2000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.BatchWidth == 0 {
		c.BatchWidth = 4
	}
	if c.Deadline == 0 {
		c.Deadline = 30 * time.Second
	}
}

// AllScenarios lists the frontends a chaos run can target: the core
// wait-free queue (GC reclamation), the fast-path/slow-path engine, the
// hazard-pointer variant, the core queue with helptree target selection,
// the sharded ticket-dispatch frontend, the ring-segment storage backend
// (the lock-free baseline without helping, and the wait-free helping
// configuration — tree-guided since PR 8 — each alone and behind the
// dispatcher, plus a small-segment tree-focused row), and the
// blocking/Close lifecycle frontend.
var AllScenarios = []string{
	"core-gc", "core-fast", "core-hp", "core-tree", "sharded",
	"ring", "ring-sharded", "ring-wf", "ring-wf-sharded", "ring-tree",
	"blocking",
}

// Result is one run's report, JSON-ready for cmd/wfqchaos.
type Result struct {
	Scenario     string `json:"scenario"`
	Profile      string `json:"profile"`
	Seed         uint64 `json:"seed"`
	Threads      int    `json:"threads"`
	OpsPerThread int    `json:"ops_per_thread"`
	Victims      []int  `json:"victims,omitempty"`
	// FrozenVictims is how many victims actually reached their freeze
	// point — equal to len(Victims) on a healthy run (the freeze
	// rendezvous guarantees the adversary was really applied).
	FrozenVictims int `json:"frozen_victims"`
	// StepBound is the single-op budget enforced (batches get a
	// width-scaled multiple); WorstSteps the largest per-op step count
	// observed on any thread.
	StepBound  int64  `json:"step_bound"`
	WorstSteps int64  `json:"worst_steps"`
	Stalls     int64  `json:"stalls"`
	HookEvents uint64 `json:"hook_events"`
	Enqueued   int64  `json:"enqueued"`
	Dequeued   int64  `json:"dequeued"`
	Drained    int64  `json:"drained"`
	MaxPhase   int64  `json:"max_phase"`
	// Latency percentiles cover live (never-frozen) threads' ops; a
	// frozen victim's in-flight op measures the harness, not the queue.
	MaxLatencyNs   int64       `json:"max_latency_ns"`
	P9999LatencyNs int64       `json:"p9999_latency_ns"`
	ElapsedNs      int64       `json:"elapsed_ns"`
	Violations     []Violation `json:"violations"`
}

// frontend adapts one queue flavour to the runner's generic workload.
type frontend struct {
	name     string
	patience int
	// emptyRuns: consecutive empty dequeues that prove the queue
	// drained at (single-threaded) teardown — 1 for single queues,
	// 2*shards for ticket dispatch, where one empty only vouches for
	// one residue.
	emptyRuns int
	classes   ClassSet
	enq       func(tid int, v int64)
	deq       func(tid int) (int64, bool)
	enqBatch  func(tid int, vs []int64)
	deqBatch  func(tid int, dst []int64) int
	maxPhase  func() int64
}

// buildFrontend constructs the queue under test for a scenario name.
func buildFrontend(name string, nthreads int) (*frontend, error) {
	switch name {
	case "core-gc":
		q := core.New[int64](nthreads,
			core.WithVariant(core.VariantOpt12), core.WithDescriptorCache())
		return &frontend{
			name: name, patience: 0, emptyRuns: 1,
			classes:  Classes(ClassEnqCAS, ClassDeqCAS, ClassChain, ClassRetry),
			enq:      q.Enqueue,
			deq:      q.Dequeue,
			enqBatch: q.EnqueueBatch,
			deqBatch: q.DequeueBatch,
			maxPhase: q.MaxObservedPhase,
		}, nil
	case "core-tree":
		// Every operation takes the KP slow path (no fast path), with the
		// helptree choosing help targets. ClassTree puts the propagate,
		// refresh, and descend windows in the antagonist's reach: victims
		// freeze mid-propagation holding a stale aggregate and survivors
		// must stay inside the polylog budget while repairing around it.
		q := core.New[int64](nthreads,
			core.WithVariant(core.VariantOpt12), core.WithDescriptorCache(),
			core.WithHelpTree())
		return &frontend{
			name: name, patience: 0, emptyRuns: 1,
			classes:  Classes(ClassEnqCAS, ClassDeqCAS, ClassChain, ClassRetry, ClassTree),
			enq:      q.Enqueue,
			deq:      q.Dequeue,
			enqBatch: q.EnqueueBatch,
			deqBatch: q.DequeueBatch,
			maxPhase: q.MaxObservedPhase,
		}, nil
	case "core-fast":
		q := core.New[int64](nthreads,
			core.WithFastPath(core.DefaultPatience), core.WithDescriptorCache())
		return &frontend{
			name: name, patience: core.DefaultPatience, emptyRuns: 1,
			classes:  AllClasses,
			enq:      q.Enqueue,
			deq:      q.Dequeue,
			enqBatch: q.EnqueueBatch,
			deqBatch: q.DequeueBatch,
			maxPhase: q.MaxObservedPhase,
		}, nil
	case "core-hp":
		q := core.NewHP[int64](nthreads, 0, 0, core.WithFastPath(core.DefaultPatience))
		return &frontend{
			name: name, patience: core.DefaultPatience, emptyRuns: 1,
			classes:  AllClasses,
			enq:      q.Enqueue,
			deq:      q.Dequeue,
			enqBatch: q.EnqueueBatch,
			deqBatch: q.DequeueBatch,
			maxPhase: q.MaxObservedPhase,
		}, nil
	case "sharded":
		const nshards = 4
		shards := make([]sharded.Shard[int64], nshards)
		for i := range shards {
			shards[i] = core.New[int64](nthreads, core.WithFastPath(core.DefaultPatience))
		}
		q := sharded.New[int64](nthreads, shards)
		return &frontend{
			name: name, patience: core.DefaultPatience, emptyRuns: 2 * nshards,
			classes:  AllClasses,
			enq:      q.Enqueue,
			deq:      q.Dequeue,
			enqBatch: q.EnqueueBatch,
			deqBatch: q.DequeueBatch,
			maxPhase: q.MaxObservedPhase,
		}, nil
	case "ring":
		// Lock-free baseline: helping disabled, so this row documents
		// what the PR-6 ring alone withstands (burn-bounded retries, no
		// slow path for the antagonist to freeze).
		q := ring.New[int64](nthreads, 0, ring.WithoutHelping())
		return &frontend{
			// A frozen ring victim costs survivors at most one burned
			// slot (enq side) or one helped boundary CAS — the step
			// budget it gets is the same zero-patience one as core-gc.
			name: name, patience: 0, emptyRuns: 1,
			classes:  Classes(ClassEnqCAS, ClassDeqCAS, ClassChain, ClassRetry),
			enq:      q.Enqueue,
			deq:      q.Dequeue,
			enqBatch: q.EnqueueBatch,
			deqBatch: q.DequeueBatch,
			maxPhase: func() int64 { return 0 },
		}, nil
	case "ring-sharded":
		const nshards = 4
		shards := make([]sharded.Shard[int64], nshards)
		for i := range shards {
			// Small segments so the antagonist actually lands on
			// boundary crossings, not just slot claims.
			shards[i] = ring.New[int64](nthreads, 64, ring.WithoutHelping())
		}
		q := sharded.New[int64](nthreads, shards)
		return &frontend{
			name: name, patience: 0, emptyRuns: 2 * nshards,
			classes:  Classes(ClassEnqCAS, ClassDeqCAS, ClassChain, ClassTicket, ClassRetry),
			enq:      q.Enqueue,
			deq:      q.Dequeue,
			enqBatch: q.EnqueueBatch,
			deqBatch: q.DequeueBatch,
			maxPhase: q.MaxObservedPhase,
		}, nil
	case "ring-wf":
		// Wait-free ring: patience 0 drives every operation through the
		// helping slow path, and ClassHelp exposes the record-publish,
		// claim, ticket, scan, finalize, and promote windows to the
		// antagonist — victims freeze mid-help and the survivors' step
		// bounds must hold while they finish the victims' operations.
		q := ring.New[int64](nthreads, 0, ring.WithPatience(0))
		return &frontend{
			name: name, patience: 0, emptyRuns: 1,
			classes:  Classes(ClassEnqCAS, ClassDeqCAS, ClassChain, ClassRetry, ClassHelp, ClassTree),
			enq:      q.Enqueue,
			deq:      q.Dequeue,
			enqBatch: q.EnqueueBatch,
			deqBatch: q.DequeueBatch,
			maxPhase: func() int64 { return 0 },
		}, nil
	case "ring-wf-sharded":
		const nshards = 4
		shards := make([]sharded.Shard[int64], nshards)
		for i := range shards {
			// Small segments + patience 0: boundary crossings, recycling
			// of ticketed segments, and helping records all behind the
			// ticket dispatcher.
			shards[i] = ring.New[int64](nthreads, 64, ring.WithPatience(0))
		}
		q := sharded.New[int64](nthreads, shards)
		return &frontend{
			name: name, patience: 0, emptyRuns: 2 * nshards,
			classes:  Classes(ClassEnqCAS, ClassDeqCAS, ClassChain, ClassTicket, ClassRetry, ClassHelp, ClassTree),
			enq:      q.Enqueue,
			deq:      q.Dequeue,
			enqBatch: q.EnqueueBatch,
			deqBatch: q.DequeueBatch,
			maxPhase: q.MaxObservedPhase,
		}, nil
	case "ring-tree":
		// Tree-focused ring row: small segments force frequent boundary
		// crossings and ticketed recycles while every op goes slow, and the
		// adversary targets ONLY the helptree windows — freezing victims
		// mid-propagate/descend is its whole strategy. Exercises the
		// stale-aggregate repair path harder than ring-wf (where tree
		// points are a minority of the target set).
		q := ring.New[int64](nthreads, 64, ring.WithPatience(0))
		return &frontend{
			name: name, patience: 0, emptyRuns: 1,
			classes:  Classes(ClassTree, ClassRetry),
			enq:      q.Enqueue,
			deq:      q.Dequeue,
			enqBatch: q.EnqueueBatch,
			deqBatch: q.DequeueBatch,
			maxPhase: func() int64 { return 0 },
		}, nil
	default:
		return nil, fmt.Errorf("unknown scenario %q (want one of %v)", name, AllScenarios)
	}
}

// workerStats is one worker's private tally, folded in after join.
type workerStats struct {
	enq, deq int64
	lats     []int64
}

// Run executes one chaos run and reports what the watchdog saw. A
// non-nil error means the configuration was unusable, not that the
// queue misbehaved — queue misbehaviour is Result.Violations.
func Run(cfg Config) (Result, error) {
	cfg.fill()
	if cfg.Scenario == "blocking" {
		return runBlocking(cfg)
	}
	fe, err := buildFrontend(cfg.Scenario, cfg.Threads)
	if err != nil {
		return Result{}, err
	}

	wd := NewWatchdog(cfg.Threads)
	ant := NewAntagonist(AntagonistConfig{
		Profile: cfg.Profile, Threads: cfg.Threads, Seed: cfg.Seed,
		Target:     fe.classes,
		StallEvery: cfg.StallEvery, StallEvents: cfg.StallEvents,
	})
	prev := yield.Set(func(p yield.Point, caller, owner int) {
		wd.Observe(p, caller, owner) // record first, so a freeze point is in the trace
		ant.Visit(p, caller, owner)
	})
	defer yield.Set(prev)

	boundOne := StepBound(BoundPolylog, cfg.Threads, fe.patience, 1)
	boundBatch := StepBound(BoundPolylog, cfg.Threads, fe.patience, cfg.BatchWidth)

	var liveWG, allWG sync.WaitGroup
	finished := make([]atomic.Bool, cfg.Threads)
	stats := make([]workerStats, cfg.Threads)
	start := time.Now()

	for tid := 0; tid < cfg.Threads; tid++ {
		victim := ant.IsVictim(tid)
		allWG.Add(1)
		if !victim {
			liveWG.Add(1)
		}
		go func(tid int, victim bool) {
			defer allWG.Done()
			if !victim {
				defer liveWG.Done()
			}
			st := &stats[tid]
			rng := xrand.New(cfg.Seed ^ (uint64(tid)+1)*0xbf58476d1ce4e5b9)
			buf := make([]int64, cfg.BatchWidth)
			for i := 0; i < cfg.Ops; i++ {
				if victim && ant.Released() {
					break // quota forfeit: the thread "crashed" mid-run
				}
				opStart := time.Now()
				switch {
				case i%16 == 5 && fe.enqBatch != nil:
					for j := range buf {
						buf[j] = int64(tid)<<32 | int64(i+j)
					}
					wd.BeginOp(tid, boundBatch)
					fe.enqBatch(tid, buf)
					st.enq += int64(len(buf))
				case i%16 == 11 && fe.deqBatch != nil:
					wd.BeginOp(tid, boundBatch)
					st.deq += int64(fe.deqBatch(tid, buf))
				case rng.Bool():
					wd.BeginOp(tid, boundOne)
					fe.enq(tid, int64(tid)<<32|int64(i))
					st.enq++
				default:
					wd.BeginOp(tid, boundOne)
					if _, ok := fe.deq(tid); ok {
						st.deq++
					}
				}
				wd.EndOp(tid)
				if !victim {
					st.lats = append(st.lats, time.Since(opStart).Nanoseconds())
				}
			}
			finished[tid].Store(true)
		}(tid, victim)
	}

	// Freeze rendezvous: the phase protocol below is only meaningful if
	// the victims are actually frozen while the live threads run. A
	// victim goroutine scheduled too late to freeze would silently
	// weaken the adversary, so that counts as a failed run.
	if !ant.AwaitFrozen(cfg.Deadline) {
		wd.ReportLiveness(-1, fmt.Sprintf("only %d of %d victims froze within %v",
			ant.FrozenVictims(), len(ant.Victims()), cfg.Deadline))
	}

	// Phase 1: every live thread must finish its quota while the
	// victims stay frozen — THE wait-freedom liveness check.
	if !waitTimeout(&liveWG, cfg.Deadline) {
		for tid := range finished {
			if !ant.IsVictim(tid) && !finished[tid].Load() {
				wd.ReportLiveness(tid, fmt.Sprintf(
					"live thread incomplete after %v with victims frozen", cfg.Deadline))
			}
		}
	}

	// Phase 2: release the victims; everyone must now terminate (a
	// released victim finishes its in-flight op and stops).
	ant.ReleaseAll()
	res := Result{
		Scenario: cfg.Scenario, Profile: cfg.Profile.String(), Seed: cfg.Seed,
		Threads: cfg.Threads, OpsPerThread: cfg.Ops,
		Victims: ant.Victims(), StepBound: boundOne,
	}
	if !waitTimeout(&allWG, cfg.Deadline) {
		for tid := range finished {
			if !finished[tid].Load() {
				wd.ReportLiveness(tid, "thread failed to terminate after victim release")
			}
		}
		// Workers are stuck inside the queue; draining it concurrently
		// would prove nothing. Report what we have.
		res.finish(wd, ant, start)
		return res, nil
	}

	// Phase 3: single-threaded teardown — drain, then check element
	// conservation and the phase wrap guard.
	var enq, deq int64
	for tid := range stats {
		enq += stats[tid].enq
		deq += stats[tid].deq
	}
	var drained int64
	empties := 0
	// The iteration cap only backstops a broken queue; on a sharded
	// frontend most drain probes burn tickets on residues that are
	// already empty, so the cap scales with emptyRuns.
	maxIter := (enq + 64) * int64(fe.emptyRuns+1)
	for iter := int64(0); empties < fe.emptyRuns && iter < maxIter; iter++ {
		if _, ok := fe.deq(0); ok {
			drained++
			empties = 0
		} else {
			empties++
		}
	}
	wd.CheckConservation(enq, deq, drained)
	wd.CheckPhase(fe.maxPhase())

	res.Enqueued, res.Dequeued, res.Drained = enq, deq, drained
	res.MaxPhase = fe.maxPhase()
	res.MaxLatencyNs, res.P9999LatencyNs = latencyStats(stats)
	res.finish(wd, ant, start)
	return res, nil
}

// finish folds the watchdog's and antagonist's tallies into r.
func (r *Result) finish(wd *Watchdog, ant *Antagonist, start time.Time) {
	r.WorstSteps = wd.WorstSteps()
	r.Stalls = ant.Stalls()
	r.FrozenVictims = ant.FrozenVictims()
	r.HookEvents = ant.Events()
	r.Violations = wd.Violations()
	if r.Violations == nil {
		r.Violations = []Violation{}
	}
	r.ElapsedNs = time.Since(start).Nanoseconds()
}

// latencyStats returns (max, p99.99) over all recorded latencies.
func latencyStats(stats []workerStats) (maxNs, p9999Ns int64) {
	var all []int64
	for i := range stats {
		all = append(all, stats[i].lats...)
	}
	if len(all) == 0 {
		return 0, 0
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all[len(all)-1], all[(len(all)-1)*9999/10000]
}

// waitTimeout waits for wg up to d; false on timeout.
func waitTimeout(wg *sync.WaitGroup, d time.Duration) bool {
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}
