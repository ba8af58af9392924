// Command wfqhelp measures the helping traffic inside the wait-free
// queue — the quantity behind the paper's Figure 9 explanation: "this
// optimization reduces the possibility for scenarios in which all
// threads try to help the same (or a few) thread(s), wasting the total
// processing time."
//
// It runs the enqueue-dequeue-pairs workload over the metered queue for
// each variant and prints, per operation: state-array entries scanned,
// helps given to other threads, failed append CASes (lost Line 74
// races), failed descriptor CASes, and tail/head fixes executed for
// someone (herding makes many threads race to execute the same fix).
//
// Usage:
//
//	wfqhelp [-threads 8] [-iters 20000] [-profile preempt]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"wfq/internal/core"
	"wfq/internal/harness"
	"wfq/internal/yield"
)

func main() {
	threads := flag.Int("threads", 8, "worker threads")
	iters := flag.Int("iters", 20000, "pairs per thread")
	profileName := flag.String("profile", "preempt", "scheduler profile: default, preempt or oversub")
	midop := flag.Bool("midop", true, "also reschedule threads in the middle of operations (at the CAS points), which is what makes helping observable on a single-core host")
	flag.Parse()

	prof, err := harness.ProfileByName(*profileName)
	if err != nil {
		fatal(err)
	}
	if *midop {
		// Park threads at the instrumented points bracketing the
		// linearization CASes. On machines where the OS already
		// preempts threads mid-operation (the paper's 16-threads-on-
		// 8-cores runs) this disturbance happens naturally; a
		// single-core Go scheduler mostly switches at call
		// boundaries, so we inject it.
		var n atomic.Uint64
		prev := yield.Set(func(p yield.Point, _, _ int) {
			if p == yield.KPBeforeAppend || p == yield.KPBeforeDeqTidCAS {
				if n.Add(1)%7 == 0 {
					runtime.Gosched()
				}
			}
		})
		defer yield.Set(prev)
	}

	fmt.Printf("help traffic per operation, %s profile, midop=%v, %d threads, %d pairs/thread\n\n",
		prof.Name, *midop, *threads, *iters)
	fmt.Printf("%-14s %9s %9s %12s %10s %9s %9s\n",
		"variant", "scans/op", "helps/op", "appendFail/op", "descFail/op", "tailFix", "headFix")
	for _, variant := range []core.Variant{core.VariantBase, core.VariantOpt2, core.VariantOpt1, core.VariantOpt12} {
		s := measure(variant, *threads, *iters, prof)
		perOp := func(x int64) float64 { return float64(x) / float64(s.OpsStarted) }
		fmt.Printf("%-14s %9.3f %9.4f %12.5f %10.5f %9d %9d\n",
			variant, perOp(s.HelpScans), perOp(s.HelpsGiven),
			perOp(s.AppendCASFailures), perOp(s.DescCASFailures),
			s.TailFixes, s.HeadFixes)
	}
}

func measure(variant core.Variant, threads, iters int, prof harness.Profile) core.Snapshot {
	q := core.New[int64](threads, core.WithVariant(variant), core.WithMetrics())
	var wg sync.WaitGroup
	gate := make(chan struct{})
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			<-gate
			for i := 0; i < iters; i++ {
				q.Enqueue(tid, int64(i))
				if prof.YieldEvery > 0 {
					runtime.Gosched()
				}
				q.Dequeue(tid)
				if prof.YieldEvery > 0 {
					runtime.Gosched()
				}
			}
		}(w)
	}
	close(gate)
	wg.Wait()
	return q.Metrics().Total()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wfqhelp:", err)
	os.Exit(1)
}
