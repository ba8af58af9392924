// Command wfqsoak is the endurance harness: it cycles through the queue
// implementations in timed epochs, hammering each with a randomized
// workload and verifying two invariants at every epoch boundary —
//
//  1. conservation: enqueued = dequeued + residual after a drain, with
//     no duplicated values (unique-value discipline), and
//  2. linearizability of a freshly recorded small concurrent window
//     (internal/lincheck).
//
// It is meant to run for minutes to hours (`-duration 1h`) to catch the
// kind of rare-interleaving defects that unit tests miss; the Line-73
// livelock documented in EXPERIMENTS.md is exactly the class of bug this
// tool exists for, and a watchdog turns any such livelock into a loud
// failure instead of a silent hang.
//
// Usage:
//
//	wfqsoak [-duration 60s] [-epoch 2s] [-threads 8] [-algs "..."]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wfq/internal/harness"
	"wfq/internal/lincheck"
	"wfq/internal/queues"
	"wfq/internal/xrand"
)

func main() {
	duration := flag.Duration("duration", 60*time.Second, "total soak time")
	epoch := flag.Duration("epoch", 2*time.Second, "time per algorithm epoch")
	threads := flag.Int("threads", 8, "workers per epoch")
	algsFlag := flag.String("algs", defaultAlgs(), "comma-separated algorithm names")
	watchdog := flag.Duration("watchdog", 30*time.Second, "max epoch wall time before declaring a livelock")
	flag.Parse()

	var algs []harness.Algorithm
	for _, name := range strings.Split(*algsFlag, ",") {
		a, err := harness.ByName(strings.TrimSpace(name))
		if err != nil {
			fmt.Fprintln(os.Stderr, "wfqsoak:", err)
			os.Exit(2)
		}
		algs = append(algs, a)
	}

	deadline := time.Now().Add(*duration)
	epochN := 0
	totalOps := int64(0)
	for time.Now().Before(deadline) {
		alg := algs[epochN%len(algs)]
		ops, err := runEpoch(alg, *threads, *epoch, *watchdog, uint64(epochN))
		if err != nil {
			fmt.Fprintf(os.Stderr, "wfqsoak: FAIL epoch %d (%s): %v\n", epochN, alg.Name, err)
			os.Exit(1)
		}
		totalOps += ops
		fmt.Printf("epoch %3d %-16s %12d ops  ok\n", epochN, alg.Name, ops)
		epochN++
	}
	fmt.Printf("soak PASSED: %d epochs, %d total ops across %d algorithms\n",
		epochN, totalOps, len(algs))
}

func defaultAlgs() string {
	names := []string{}
	for _, a := range harness.AllAlgorithms() {
		names = append(names, a.Name)
	}
	return strings.Join(names, ",")
}

// runEpoch churns one algorithm and checks invariants. Returns ops done.
func runEpoch(alg harness.Algorithm, threads int, epoch, watchdog time.Duration, seed uint64) (int64, error) {
	q := alg.New(threads)
	var next atomic.Int64 // unique value source
	var stop atomic.Bool
	var wg sync.WaitGroup
	var enq, deqOK, dups atomic.Int64
	var consumed sync.Map

	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			rng := xrand.New(seed*1_000_003 + uint64(tid))
			for !stop.Load() {
				if rng.Bool() {
					q.Enqueue(tid, next.Add(1))
					enq.Add(1)
				} else if v, ok := q.Dequeue(tid); ok {
					if _, dup := consumed.LoadOrStore(v, tid); dup {
						dups.Add(1)
					}
					deqOK.Add(1)
				}
			}
		}(w)
	}
	time.Sleep(epoch)
	stop.Store(true)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(watchdog):
		return 0, fmt.Errorf("livelock: workers did not finish within %v", watchdog)
	}

	// Drain and check conservation. A lifecycle-aware queue decides its
	// own termination: Close fixes the element set (the producers above
	// have joined, so no untracked enqueue is in flight) and DequeueCtx
	// returns ErrClosed exactly when the queue is provably drained — on
	// a sharded frontend that proof is the shared post-quiescence drain
	// mask, not a guess. Queues without the lifecycle layer fall back to
	// the old heuristic: a single empty result proves a single queue
	// empty, but a sharded frontend only proves ONE shard empty, so its
	// drain needs Shards() consecutive misses (consecutive tickets visit
	// every residue class).
	rest := int64(0)
	if lc, ok := q.(queues.Lifecycled); ok {
		if err := lc.Close(); err != nil {
			return 0, fmt.Errorf("close: %v", err)
		}
		for {
			v, err := lc.DequeueCtx(context.Background(), 0)
			if err != nil {
				break // ErrClosed: drained
			}
			if _, dup := consumed.LoadOrStore(v, -1); dup {
				dups.Add(1)
			}
			rest++
		}
	} else {
		needMisses := 1
		if tq, ok := q.(queues.Ticketed); ok {
			needMisses = tq.Shards()
		}
		misses := 0
		for misses < needMisses {
			v, ok := q.Dequeue(0)
			if !ok {
				misses++
				continue
			}
			misses = 0
			if _, dup := consumed.LoadOrStore(v, -1); dup {
				dups.Add(1)
			}
			rest++
		}
	}
	if dups.Load() != 0 {
		return 0, fmt.Errorf("%d duplicated values", dups.Load())
	}
	if deqOK.Load()+rest != enq.Load() {
		return 0, fmt.Errorf("conservation: enq=%d deq=%d rest=%d", enq.Load(), deqOK.Load(), rest)
	}

	// A recorded linearizability window on a fresh instance.
	if err := linWindow(alg, threads, seed); err != nil {
		return 0, err
	}
	return enq.Load() + deqOK.Load(), nil
}

func linWindow(alg harness.Algorithm, threads int, seed uint64) error {
	const ops = 30
	q := alg.New(threads)
	// Sharded frontends are checked against the partitioned bag-of-FIFOs
	// specification; see cmd/wfqcheck.
	tq, ticketed := q.(queues.Ticketed)
	rec := lincheck.NewRecorder(threads, ops)
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			rng := xrand.New(seed*31 + uint64(tid))
			for i := 0; i < ops; i++ {
				if rng.Bool() {
					v := int64(tid)<<32 | int64(i)
					tok := rec.BeginEnq(tid, v)
					if ticketed {
						ticket := tq.EnqueueTicket(tid, v)
						rec.SetShard(tok, int(ticket%uint64(tq.Shards())))
					} else {
						q.Enqueue(tid, v)
					}
					rec.EndEnq(tok)
				} else {
					tok := rec.BeginDeq(tid)
					var (
						v  int64
						ok bool
					)
					if ticketed {
						var ticket uint64
						v, ok, ticket = tq.DequeueTicket(tid)
						rec.SetShard(tok, int(ticket%uint64(tq.Shards())))
					} else {
						v, ok = q.Dequeue(tid)
					}
					rec.EndDeq(tok, v, ok)
				}
			}
		}(w)
	}
	wg.Wait()
	var c lincheck.Checker
	var res lincheck.Result
	var err error
	if ticketed {
		res, err = c.CheckSharded(rec.History())
	} else {
		res, err = c.Check(rec.History())
	}
	if err != nil {
		return err
	}
	if res == lincheck.NotLinearizable {
		return fmt.Errorf("recorded window not linearizable")
	}
	return nil
}
