package harness

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"wfq/internal/core"
	"wfq/internal/queues"
	"wfq/internal/stats"
	"wfq/internal/xrand"
)

// Workload selects one of the paper's two benchmarks (§4) or one of the
// batch extensions.
type Workload int

// The paper's benchmark workloads, plus the batch extensions.
const (
	// Pairs: "the queue is initially empty, and at each iteration,
	// each thread iteratively performs an enqueue operation followed
	// by a dequeue operation". 2·iters operations per thread.
	Pairs Workload = iota
	// Fifty: "the queue is initialized with 1000 elements, and at each
	// iteration, each thread decides uniformly at random ... with
	// equal odds for enqueue and dequeue". iters operations per thread.
	Fifty
	// BatchPairs is Pairs moved in groups: each iteration is one
	// EnqueueBatch of Config.BatchK elements followed by one
	// DequeueBatch of the same width — 2·BatchK·iters operations per
	// thread. Algorithms without batch support run the equivalent loops
	// of singles, so the series stay comparable.
	BatchPairs
	// BatchEnq is the enqueue-only batch workload: each iteration is one
	// EnqueueBatch of Config.BatchK elements — BatchK·iters operations
	// per thread. It isolates the chained-append amortization (one
	// linearizing CAS per batch) from the dequeue side, whose claims are
	// per-element by design.
	BatchEnq
)

// String names the workload as the paper does.
func (w Workload) String() string {
	switch w {
	case Pairs:
		return "enqueue-dequeue pairs"
	case Fifty:
		return "50% enqueues"
	case BatchPairs:
		return "batch pairs"
	case BatchEnq:
		return "batch enqueues"
	default:
		return fmt.Sprintf("Workload(%d)", int(w))
	}
}

// Prefill reports the initial queue size the workload mandates.
func (w Workload) Prefill() int {
	if w == Fifty {
		return 1000
	}
	return 0
}

// Config describes one measured run.
type Config struct {
	Workload Workload
	// Threads is the number of worker threads (the x-axis of the
	// figures, 1..16 in the paper).
	Threads int
	// Iters is the per-thread iteration count (1,000,000 in the
	// paper; configurable because this host has one core).
	Iters int
	// Seed derives the per-worker random streams of the Fifty
	// workload; runs with equal seeds perform identical op sequences.
	Seed uint64
	// Profile is the scheduler disturbance profile.
	Profile Profile
	// BatchK is the batch width of the BatchPairs/BatchEnq workloads
	// (elements per EnqueueBatch/DequeueBatch call); 0 means the default
	// of 8. Ignored by the paper workloads.
	BatchK int
}

// batchK resolves the effective batch width.
func (c Config) batchK() int {
	if c.BatchK > 0 {
		return c.BatchK
	}
	return 8
}

// OpsPerIter reports how many queue operations one worker iteration of
// the workload performs — the factor that converts Iters into the
// throughput denominator.
func (c Config) OpsPerIter() int {
	switch c.Workload {
	case Pairs:
		return 2
	case BatchPairs:
		return 2 * c.batchK()
	case BatchEnq:
		return c.batchK()
	default:
		return 1
	}
}

func (c Config) validate() error {
	if c.Threads <= 0 {
		return fmt.Errorf("harness: Threads must be positive, got %d", c.Threads)
	}
	if c.Iters <= 0 {
		return fmt.Errorf("harness: Iters must be positive, got %d", c.Iters)
	}
	if c.BatchK < 0 {
		return fmt.Errorf("harness: BatchK must be non-negative, got %d", c.BatchK)
	}
	return nil
}

// Result is the full observation set of one measured run.
type Result struct {
	// Elapsed is the paper's metric: wall time from releasing all
	// workers until the last finishes.
	Elapsed time.Duration
	// AllocsPerOp and BytesPerOp are runtime.MemStats deltas across the
	// measured window (read outside it, so they do not perturb timing)
	// divided by the total operation count Threads·Iters·OpsPerIter.
	// They charge everything allocated during the window — nodes,
	// descriptors, GC assists — which is exactly the number node blocks
	// and the descriptor cache exist to shrink.
	AllocsPerOp float64
	BytesPerOp  float64
	// GOMAXPROCS is the effective runtime.GOMAXPROCS DURING the measured
	// window — read after the profile applied its override, so a sweep
	// that varies GOMAXPROCS per cell stamps each cell with the value it
	// actually ran under (a process-level capture would misstamp every
	// cell after the first override).
	GOMAXPROCS int
	// Metrics is the summed core event-counter snapshot, zero-valued
	// when the algorithm was not built with core.WithMetrics (all the
	// HP variants, and the baselines).
	Metrics core.Snapshot
}

// Run executes one measured run of alg under cfg and returns the total
// completion time.
func Run(alg Algorithm, cfg Config) (time.Duration, error) {
	r, err := RunMeasured(alg, cfg)
	return r.Elapsed, err
}

// RunMeasured is Run with the allocation and event-counter observations
// retained.
func RunMeasured(alg Algorithm, cfg Config) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	q := alg.New(cfg.Threads)
	for i := 0; i < cfg.Workload.Prefill(); i++ {
		q.Enqueue(0, int64(i))
	}
	b, hasBatch := q.(queues.Batcher)

	restore := cfg.Profile.apply()
	defer restore()
	effProcs := runtime.GOMAXPROCS(0)

	var start, done sync.WaitGroup
	gate := make(chan struct{})
	start.Add(cfg.Threads)
	done.Add(cfg.Threads)
	for w := 0; w < cfg.Threads; w++ {
		go func(tid int) {
			defer done.Done()
			rng := xrand.New(cfg.Seed*1_000_003 + uint64(tid))
			k := cfg.batchK()
			var vs, dst []int64
			if cfg.Workload == BatchPairs || cfg.Workload == BatchEnq {
				vs = make([]int64, k)
				dst = make([]int64, k)
			}
			start.Done()
			<-gate
			yieldEvery := cfg.Profile.YieldEvery
			opCount := 0
			maybeYield := func() {
				if yieldEvery > 0 {
					opCount++
					if opCount%yieldEvery == 0 {
						runtime.Gosched()
					}
				}
			}
			switch cfg.Workload {
			case Pairs:
				for i := 0; i < cfg.Iters; i++ {
					q.Enqueue(tid, int64(tid)<<32|int64(i))
					maybeYield()
					q.Dequeue(tid)
					maybeYield()
				}
			case Fifty:
				for i := 0; i < cfg.Iters; i++ {
					if rng.Bool() {
						q.Enqueue(tid, int64(tid)<<32|int64(i))
					} else {
						q.Dequeue(tid)
					}
					maybeYield()
				}
			case BatchPairs:
				for i := 0; i < cfg.Iters; i++ {
					for j := range vs {
						vs[j] = int64(tid)<<32 | int64(i*k+j)
					}
					if hasBatch {
						b.EnqueueBatch(tid, vs)
					} else {
						for _, v := range vs {
							q.Enqueue(tid, v)
						}
					}
					maybeYield()
					if hasBatch {
						b.DequeueBatch(tid, dst)
					} else {
						for range dst {
							q.Dequeue(tid)
						}
					}
					maybeYield()
				}
			case BatchEnq:
				for i := 0; i < cfg.Iters; i++ {
					for j := range vs {
						vs[j] = int64(tid)<<32 | int64(i*k+j)
					}
					if hasBatch {
						b.EnqueueBatch(tid, vs)
					} else {
						for _, v := range vs {
							q.Enqueue(tid, v)
						}
					}
					maybeYield()
				}
			}
		}(w)
	}
	start.Wait()
	// Workers are parked at the gate with their scratch slices allocated;
	// everything malloc'd from here to the post-Wait read happened inside
	// the measured window.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	close(gate)
	done.Wait()
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&m1)

	res := Result{Elapsed: elapsed, GOMAXPROCS: effProcs}
	totalOps := float64(cfg.Threads) * float64(cfg.Iters) * float64(cfg.OpsPerIter())
	res.AllocsPerOp = float64(m1.Mallocs-m0.Mallocs) / totalOps
	res.BytesPerOp = float64(m1.TotalAlloc-m0.TotalAlloc) / totalOps
	switch m := q.(type) {
	case interface{ Metrics() *core.Metrics }:
		if met := m.Metrics(); met != nil {
			res.Metrics = met.Total()
		}
	case interface{ Metrics() []*core.Metrics }:
		for _, met := range m.Metrics() {
			if met != nil {
				res.Metrics = res.Metrics.Add(met.Total())
			}
		}
	}
	return res, nil
}

// Repeat runs alg under cfg `times` times (the paper uses ten) and
// returns the per-run durations summarized.
func Repeat(alg Algorithm, cfg Config, times int) (stats.Summary, error) {
	s, _, err := RepeatMeasured(alg, cfg, times)
	return s, err
}

// RepeatMeasured is Repeat with the measurement side retained: the
// returned Result carries the across-run means of AllocsPerOp and
// BytesPerOp and the event counters of the LAST run (each run builds a
// fresh queue, so counters do not accumulate across runs).
func RepeatMeasured(alg Algorithm, cfg Config, times int) (stats.Summary, Result, error) {
	if times <= 0 {
		return stats.Summary{}, Result{}, fmt.Errorf("harness: times must be positive, got %d", times)
	}
	ds := make([]time.Duration, 0, times)
	var agg Result
	for r := 0; r < times; r++ {
		res, err := RunMeasured(alg, cfg)
		if err != nil {
			return stats.Summary{}, Result{}, err
		}
		ds = append(ds, res.Elapsed)
		agg.AllocsPerOp += res.AllocsPerOp / float64(times)
		agg.BytesPerOp += res.BytesPerOp / float64(times)
		agg.Metrics = res.Metrics
		agg.GOMAXPROCS = res.GOMAXPROCS
	}
	return stats.SummarizeDurations(ds), agg, nil
}

// SweepPoint is one (algorithm, thread-count) cell of a figure.
type SweepPoint struct {
	Algorithm string
	Threads   int
	Summary   stats.Summary
	// Iters and OpsPerIter reproduce the cell's configuration so readers
	// can convert the timing into throughput (batch workloads move
	// BatchK elements per iteration, and drivers may scale Iters by the
	// width to hold the element count constant across widths).
	Iters      int
	OpsPerIter int
	// AllocsPerOp and BytesPerOp are means across the repeats; Metrics
	// is the event-counter total of the last repeat. See RepeatMeasured.
	AllocsPerOp float64
	BytesPerOp  float64
	Metrics     core.Snapshot
	// GOMAXPROCS is the effective scheduler width the cell ran under
	// (after any profile override) — see Result.GOMAXPROCS. Cells with
	// Threads > GOMAXPROCS measure scheduler multiplexing, not
	// parallelism, and drivers warn on them.
	GOMAXPROCS int
}

// Sweep measures every algorithm at every thread count — one panel of a
// paper figure. Results are ordered algorithm-major, matching algs.
func Sweep(algs []Algorithm, threadCounts []int, base Config, repeats int) ([]SweepPoint, error) {
	var out []SweepPoint
	for _, alg := range algs {
		for _, n := range threadCounts {
			cfg := base
			cfg.Threads = n
			s, r, err := RepeatMeasured(alg, cfg, repeats)
			if err != nil {
				return nil, fmt.Errorf("%s @%d threads: %w", alg.Name, n, err)
			}
			out = append(out, SweepPoint{
				Algorithm: alg.Name, Threads: n, Summary: s,
				Iters: cfg.Iters, OpsPerIter: cfg.OpsPerIter(),
				AllocsPerOp: r.AllocsPerOp, BytesPerOp: r.BytesPerOp,
				Metrics: r.Metrics, GOMAXPROCS: r.GOMAXPROCS,
			})
		}
	}
	return out, nil
}

// ThreadRange returns the inclusive integer range [lo, hi] — the paper's
// sweeps use 1..16.
func ThreadRange(lo, hi int) []int {
	if hi < lo {
		return nil
	}
	out := make([]int, 0, hi-lo+1)
	for n := lo; n <= hi; n++ {
		out = append(out, n)
	}
	return out
}
