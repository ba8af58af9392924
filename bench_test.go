// Benchmarks regenerating the paper's evaluation, one per figure, plus
// the microbenchmarks behind the §3.3 design discussion. Run with:
//
//	go test -bench=. -benchmem
//
// The figure benches execute the same workloads as cmd/wfqpaper at a
// reduced scale; each b.N iteration is one complete workload run, so
// sec/op is the "total completion time" metric the paper plots, and the
// reported ops/s metric is the aggregate queue-operation throughput.
package wfq_test

import (
	"fmt"
	"sync"
	"testing"

	"wfq"
	"wfq/internal/core"
	"wfq/internal/harness"
	"wfq/internal/mpsc"
	"wfq/internal/msqueue"
	"wfq/internal/phase"
	"wfq/internal/queues"
	"wfq/internal/spmc"
	"wfq/internal/spsc"
)

// benchIters is the per-thread iteration count of one workload run inside
// a figure bench (the paper used 1,000,000 on 8 cores; keep each b.N
// iteration around a millisecond here).
const benchIters = 2000

// runWorkload executes one full workload run per b.N iteration and
// reports aggregate queue-op throughput.
func runWorkload(b *testing.B, alg harness.Algorithm, w harness.Workload, threads int, prof harness.Profile) {
	b.Helper()
	cfg := harness.Config{Workload: w, Threads: threads, Iters: benchIters, Seed: 1, Profile: prof}
	opsPerRun := benchIters * threads
	if w == harness.Pairs {
		opsPerRun *= 2
	}
	b.ResetTimer()
	var allocs float64
	for i := 0; i < b.N; i++ {
		res, err := harness.RunMeasured(alg, cfg)
		if err != nil {
			b.Fatal(err)
		}
		allocs += res.AllocsPerOp
	}
	b.ReportMetric(float64(opsPerRun*b.N)/b.Elapsed().Seconds(), "queueops/s")
	// Heap allocations per QUEUE op (go test's own allocs/op counts per
	// harness run) — the number the arena and descriptor cache shrink.
	b.ReportMetric(allocs/float64(b.N), "qallocs/op")
}

// BenchmarkFig7Pairs is Figure 7: enqueue-dequeue pairs completion time,
// series LF / base WF / opt WF (1+2), swept over thread counts. Profiles
// (the paper's three machines) are separate sub-benchmarks only for the
// default profile here; run cmd/wfqpaper for all panels.
func BenchmarkFig7Pairs(b *testing.B) {
	for _, alg := range harness.Figure7Algorithms() {
		for _, n := range []int{1, 2, 4, 8, 16} {
			b.Run(fmt.Sprintf("%s/threads=%d", alg.Name, n), func(b *testing.B) {
				runWorkload(b, alg, harness.Pairs, n, harness.Profile{})
			})
		}
	}
}

// BenchmarkFig8Fifty is Figure 8: the 50%-enqueues workload over a queue
// pre-filled with 1000 elements.
func BenchmarkFig8Fifty(b *testing.B) {
	for _, alg := range harness.Figure7Algorithms() {
		for _, n := range []int{1, 2, 4, 8, 16} {
			b.Run(fmt.Sprintf("%s/threads=%d", alg.Name, n), func(b *testing.B) {
				runWorkload(b, alg, harness.Fifty, n, harness.Profile{})
			})
		}
	}
}

// BenchmarkFig9Ablation is Figure 9: the four wait-free variants on the
// pairs workload, isolating each optimization's contribution.
func BenchmarkFig9Ablation(b *testing.B) {
	for _, alg := range harness.Figure9Algorithms() {
		for _, n := range []int{1, 4, 8, 16} {
			b.Run(fmt.Sprintf("%s/threads=%d", alg.Name, n), func(b *testing.B) {
				runWorkload(b, alg, harness.Pairs, n, harness.Profile{})
			})
		}
	}
}

// BenchmarkFig7PreemptProfile samples the second panel dimension: the
// same series under the preemption-heavy profile, where the paper found
// the LF/WF gap narrows or inverts.
func BenchmarkFig7PreemptProfile(b *testing.B) {
	prof, err := harness.ProfileByName("preempt")
	if err != nil {
		b.Fatal(err)
	}
	for _, alg := range harness.Figure7Algorithms() {
		b.Run(fmt.Sprintf("%s/threads=8", alg.Name), func(b *testing.B) {
			runWorkload(b, alg, harness.Pairs, 8, prof)
		})
	}
}

// BenchmarkFig10Space is Figure 10: live-heap bytes per queue node. Each
// b.N iteration measures a quiesced 10^5-element queue; the reported
// metrics are bytes/node for LF and the WF/LF ratio the figure plots.
func BenchmarkFig10Space(b *testing.B) {
	const size = 100000
	for _, alg := range []harness.Algorithm{harness.LF(), harness.BaseWF(), harness.OptWF12()} {
		b.Run(alg.Name, func(b *testing.B) {
			cfg := harness.SpaceConfig{InitialSize: size, Threads: 2, Samples: 1, Interval: 0}
			var last float64
			for i := 0; i < b.N; i++ {
				m, err := harness.SpaceRun(alg, cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = m
			}
			b.ReportMetric(last/size, "bytes/node")
		})
	}
}

// --- Fast-path engine benchmarks --------------------------------------

// fastPathSeries are the series the fast-path/slow-path engine is judged
// against: the lock-free baseline it borrows its fast attempts from, the
// paper's best wait-free performer it falls back to, the arena-backed
// build (run with -benchmem: the arena's reason to exist is allocs/op),
// and the ring-segment backend, whose FAA claim replaces the CAS loop
// entirely.
func fastPathSeries() []harness.Algorithm {
	return []harness.Algorithm{harness.LF(), harness.OptWF12(), harness.FastWF(), harness.FastWFArena(), harness.RingWF()}
}

// runOpsPhase times one single-kind operation phase per b.N iteration:
// threads goroutines each performing benchIters enqueues (or dequeues of
// a pre-filled queue).
func runOpsPhase(b *testing.B, alg harness.Algorithm, threads int, enqueue bool) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		q := alg.New(threads)
		if !enqueue {
			for j := 0; j < threads*benchIters; j++ {
				q.Enqueue(0, int64(j))
			}
		}
		var wg sync.WaitGroup
		b.StartTimer()
		for t := 0; t < threads; t++ {
			wg.Add(1)
			go func(tid int) {
				defer wg.Done()
				if enqueue {
					for j := 0; j < benchIters; j++ {
						q.Enqueue(tid, int64(tid*benchIters+j))
					}
				} else {
					for j := 0; j < benchIters; j++ {
						q.Dequeue(tid)
					}
				}
			}(t)
		}
		wg.Wait()
	}
	b.ReportMetric(float64(threads*benchIters*b.N)/b.Elapsed().Seconds(), "queueops/s")
}

// BenchmarkEnqueue compares pure enqueue throughput of the lock-free
// baseline, the recommended wait-free configuration, and the fast-path
// engine (which should track LF at low thread counts).
func BenchmarkEnqueue(b *testing.B) {
	for _, alg := range fastPathSeries() {
		for _, n := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/threads=%d", alg.Name, n), func(b *testing.B) {
				runOpsPhase(b, alg, n, true)
			})
		}
	}
}

// BenchmarkDequeue is the dequeue-side counterpart over a pre-filled
// queue.
func BenchmarkDequeue(b *testing.B) {
	for _, alg := range fastPathSeries() {
		for _, n := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/threads=%d", alg.Name, n), func(b *testing.B) {
				runOpsPhase(b, alg, n, false)
			})
		}
	}
}

// BenchmarkMixed runs the same three series through the paper's pairs
// workload — mixed enqueues and dequeues under the full harness.
func BenchmarkMixed(b *testing.B) {
	for _, alg := range fastPathSeries() {
		for _, n := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/threads=%d", alg.Name, n), func(b *testing.B) {
				runWorkload(b, alg, harness.Pairs, n, harness.Profile{})
			})
		}
	}
}

// runBatchWorkload is runWorkload for the batch workloads: Iters shrinks
// by the batch width so every (k, algorithm) cell moves the same number
// of ELEMENTS, and throughput is reported per element.
func runBatchWorkload(b *testing.B, alg harness.Algorithm, w harness.Workload, threads, k int) {
	b.Helper()
	iters := benchIters / k
	if iters == 0 {
		iters = 1
	}
	cfg := harness.Config{Workload: w, Threads: threads, Iters: iters, Seed: 1, BatchK: k}
	opsPerRun := cfg.OpsPerIter() * iters * threads
	b.ResetTimer()
	var allocs float64
	for i := 0; i < b.N; i++ {
		res, err := harness.RunMeasured(alg, cfg)
		if err != nil {
			b.Fatal(err)
		}
		allocs += res.AllocsPerOp
	}
	b.ReportMetric(float64(opsPerRun*b.N)/b.Elapsed().Seconds(), "queueops/s")
	b.ReportMetric(allocs/float64(b.N), "qallocs/op")
}

// BenchmarkEnqueueBatch prices the chained-node append: k elements per
// EnqueueBatch (k=1 is the all-singles baseline at identical element
// count) across the fast-path engine with and without the arena, and the
// sharded frontend's per-shard chained fan-out. The per-element speedup
// from k=1 to k=8 is the issue's acceptance number.
func BenchmarkEnqueueBatch(b *testing.B) {
	algs := []harness.Algorithm{harness.FastWF(), harness.FastWFArena(), harness.ShardedWF(), harness.RingWF()}
	for _, alg := range algs {
		for _, k := range []int{1, 8, 64} {
			for _, n := range []int{1, 4} {
				b.Run(fmt.Sprintf("%s/k=%d/threads=%d", alg.Name, k, n), func(b *testing.B) {
					runBatchWorkload(b, alg, harness.BatchEnq, n, k)
				})
			}
		}
	}
}

// BenchmarkBatchPairs is the mixed batch workload: one EnqueueBatch and
// one DequeueBatch of width k per iteration. The dequeue side claims
// per element by design, so the expected gain is roughly half the
// enqueue-only one.
func BenchmarkBatchPairs(b *testing.B) {
	algs := []harness.Algorithm{harness.FastWF(), harness.FastWFArena(), harness.RingWF()}
	for _, alg := range algs {
		for _, k := range []int{1, 8} {
			for _, n := range []int{1, 4} {
				b.Run(fmt.Sprintf("%s/k=%d/threads=%d", alg.Name, k, n), func(b *testing.B) {
					runBatchWorkload(b, alg, harness.BatchPairs, n, k)
				})
			}
		}
	}
}

// --- Microbenchmarks for the §3.3 design discussion -------------------

// BenchmarkUncontendedPairs measures single-thread enqueue+dequeue cost
// per variant — the "number of steps executed by each thread when there
// is no contention" that motivates both optimizations.
func BenchmarkUncontendedPairs(b *testing.B) {
	variants := []struct {
		name string
		mk   func() *core.Queue[int64]
	}{
		{"base/n=8", func() *core.Queue[int64] { return core.New[int64](8) }},
		{"base/n=64", func() *core.Queue[int64] { return core.New[int64](64) }},
		{"opt12/n=8", func() *core.Queue[int64] { return core.New[int64](8, core.WithVariant(core.VariantOpt12)) }},
		{"opt12/n=64", func() *core.Queue[int64] { return core.New[int64](64, core.WithVariant(core.VariantOpt12)) }},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			q := v.mk()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.Enqueue(0, int64(i))
				q.Dequeue(0)
			}
		})
	}
}

// BenchmarkPhaseProviders compares the §3.3 phase sources: the maxPhase
// scan (embedded in a base-variant op), the CAS counter, and FAA.
func BenchmarkPhaseProviders(b *testing.B) {
	b.Run("CAS", func(b *testing.B) {
		p := phase.NewCAS()
		for i := 0; i < b.N; i++ {
			p.Next()
		}
	})
	b.Run("FAA", func(b *testing.B) {
		p := phase.NewFAA()
		for i := 0; i < b.N; i++ {
			p.Next()
		}
	})
}

// BenchmarkDescriptorCache isolates the §3.3 allocation-reuse
// enhancement on the uncontended path.
func BenchmarkDescriptorCache(b *testing.B) {
	for _, on := range []bool{false, true} {
		name := "off"
		opts := []core.Option{core.WithVariant(core.VariantOpt12)}
		if on {
			name = "on"
			opts = append(opts, core.WithDescriptorCache())
		}
		b.Run(name, func(b *testing.B) {
			q := core.New[int64](8, opts...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.Enqueue(0, int64(i))
				q.Dequeue(0)
			}
		})
	}
}

// BenchmarkValidationChecks prices the third §3.3 enhancement (skip
// already-satisfied completion CASes) under contention, where redundant
// helpers make the skipped CASes common.
func BenchmarkValidationChecks(b *testing.B) {
	for _, on := range []bool{false, true} {
		name := "off"
		alg := harness.BaseWF()
		if on {
			name = "on"
			alg = harness.Algorithm{Name: "base WF+validate", New: func(n int) queues.Queue {
				return core.New[int64](n, core.WithValidationChecks())
			}}
		}
		b.Run(name, func(b *testing.B) {
			runWorkload(b, alg, harness.Pairs, 8, harness.Profile{})
		})
	}
}

// BenchmarkHPOverhead compares the GC-reliant queue against the §3.4
// hazard-pointer variant, pricing safe memory reclamation.
func BenchmarkHPOverhead(b *testing.B) {
	b.Run("gc", func(b *testing.B) {
		q := core.New[int64](8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q.Enqueue(0, int64(i))
			q.Dequeue(0)
		}
	})
	b.Run("hazard", func(b *testing.B) {
		q := core.NewHP[int64](8, 0, 0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q.Enqueue(0, int64(i))
			q.Dequeue(0)
		}
	})
}

// BenchmarkFacadeHandle prices the public Handle plumbing against raw
// tid calls.
func BenchmarkFacadeHandle(b *testing.B) {
	q := wfq.New[int64](8)
	h, err := q.Handle()
	if err != nil {
		b.Fatal(err)
	}
	defer h.Release()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Enqueue(int64(i))
		h.Dequeue()
	}
}

// BenchmarkHelpCandidateChoice compares the §3.3 helping-candidate
// policies under contention: the cyclic cursor (deterministic
// wait-freedom) against random selection (probabilistic wait-freedom).
func BenchmarkHelpCandidateChoice(b *testing.B) {
	for _, tc := range []struct {
		name string
		alg  harness.Algorithm
	}{
		{"cyclic", harness.OptWF12()},
		{"random", harness.OptWF12Random()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			runWorkload(b, tc.alg, harness.Pairs, 8, harness.Profile{})
		})
	}
}

// BenchmarkHelpChunkSweep prices the §3.3 chunk parameter k: larger
// chunks help more peers per operation (shorter helping delay bound
// ⌈n/k⌉) at more per-op scanning.
func BenchmarkHelpChunkSweep(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8} {
		alg := harness.Algorithm{
			Name: fmt.Sprintf("chunk%d", k),
			New: func(n int) queues.Queue {
				return core.New[int64](n, core.WithVariant(core.VariantOpt12), core.WithHelpChunk(k))
			},
		}
		b.Run(alg.Name, func(b *testing.B) {
			runWorkload(b, alg, harness.Pairs, 12, harness.Profile{})
		})
	}
}

// BenchmarkHPBothSides prices hazard-pointer reclamation on both the
// lock-free baseline and the wait-free queue (§3.4 both ways).
func BenchmarkHPBothSides(b *testing.B) {
	for _, alg := range []harness.Algorithm{
		harness.LF(), harness.LFHP(), harness.BaseWF(), harness.WFHP(),
	} {
		b.Run(alg.Name, func(b *testing.B) {
			runWorkload(b, alg, harness.Pairs, 4, harness.Profile{})
		})
	}
}

// BenchmarkRestrictedQueues measures the related-work ancestors on their
// home turf: Lamport's SPSC ring (1 producer, 1 consumer) and the
// David-style SPMC array queue (1 producer), against the MPMC queues
// running the same restricted workload — the cost of generality.
func BenchmarkRestrictedQueues(b *testing.B) {
	b.Run("spsc-lamport", func(b *testing.B) {
		q := spsc.New[int64](1024)
		for i := 0; i < b.N; i++ {
			q.Enqueue(int64(i))
			q.Dequeue()
		}
	})
	b.Run("spmc-david", func(b *testing.B) {
		q := spmc.New[int64]()
		for i := 0; i < b.N; i++ {
			q.Enqueue(int64(i))
			q.Dequeue()
		}
	})
	b.Run("mpsc-ticket", func(b *testing.B) {
		q := mpsc.New[int64]()
		for i := 0; i < b.N; i++ {
			q.Enqueue(int64(i))
			q.Dequeue()
		}
	})
	b.Run("mpmc-lockfree", func(b *testing.B) {
		q := msqueue.New[int64]()
		for i := 0; i < b.N; i++ {
			q.Enqueue(int64(i))
			q.Dequeue()
		}
	})
	b.Run("mpmc-waitfree-opt12", func(b *testing.B) {
		q := core.New[int64](1, core.WithVariant(core.VariantOpt12))
		for i := 0; i < b.N; i++ {
			q.Enqueue(0, int64(i))
			q.Dequeue(0)
		}
	})
}

// BenchmarkMetricsOverhead prices the WithMetrics instrumentation so
// help-traffic measurements can be trusted not to distort the workload.
func BenchmarkMetricsOverhead(b *testing.B) {
	for _, on := range []bool{false, true} {
		name := "off"
		opts := []core.Option{core.WithVariant(core.VariantOpt12)}
		if on {
			name = "on"
			opts = append(opts, core.WithMetrics())
		}
		b.Run(name, func(b *testing.B) {
			q := core.New[int64](8, opts...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.Enqueue(0, int64(i))
				q.Dequeue(0)
			}
		})
	}
}

// BenchmarkUniversalVsKP quantifies the paper's §2 claim that universal
// constructions are "hardly considered practical": the same wait-free
// guarantee, obtained generically (Herlihy's construction) vs the
// paper's purpose-built queue, on the contended pairs workload.
func BenchmarkUniversalVsKP(b *testing.B) {
	for _, alg := range []harness.Algorithm{harness.Universal(), harness.OptWF12(), harness.LF()} {
		for _, n := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("%s/threads=%d", alg.Name, n), func(b *testing.B) {
				runWorkload(b, alg, harness.Pairs, n, harness.Profile{})
			})
		}
	}
}

// BenchmarkContendedPairs drives all variants with GOMAXPROCS workers via
// RunParallel — the steady-state contention microbenchmark.
func BenchmarkContendedPairs(b *testing.B) {
	algs := []harness.Algorithm{harness.LF(), harness.BaseWF(), harness.OptWF12(), harness.Mutex()}
	for _, alg := range algs {
		b.Run(alg.Name, func(b *testing.B) {
			const slots = 64
			q := alg.New(slots)
			tids := make(chan int, slots)
			for i := 0; i < slots; i++ {
				tids <- i
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				tid := <-tids
				defer func() { tids <- tid }()
				for pb.Next() {
					q.Enqueue(tid, 1)
					q.Dequeue(tid)
				}
			})
		})
	}
}
