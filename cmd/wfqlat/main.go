// Command wfqlat measures per-operation latency distributions — the
// operational face of wait-freedom. The paper motivates its construction
// with "strict deadlines for operation completion" (real-time, SLA);
// this tool shows where that matters: the p99.9/max tail under a
// disturbed scheduler, where a preempted lock-free thread stalls its own
// operation but a preempted wait-free thread gets helped.
//
// With -blocking it instead measures the blocking-consumer regime: a
// low-duty-cycle workload where what matters is the consumer's IDLE
// cost (spin-poll burns a core; DequeueCtx parks) and the park→wake
// delivery latency; -json writes the series for results/.
//
// Usage:
//
//	wfqlat [-threads 8] [-iters 20000] [-profile preempt] [-sample 1]
//	       [-algs "LF,base WF,opt WF (1+2)"]
//	wfqlat -blocking [-duration 2s] [-producers 4] [-consumers 4]
//	       [-json results/BENCH_blocking.json]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"wfq/internal/harness"
)

func main() {
	threads := flag.Int("threads", 8, "worker threads")
	iters := flag.Int("iters", 20000, "enqueue-dequeue pairs per thread")
	profileName := flag.String("profile", "preempt", "scheduler profile: default, preempt or oversub")
	sample := flag.Int("sample", 1, "time one in every k operations")
	algsFlag := flag.String("algs", "LF,base WF,opt WF (1+2)", "comma-separated algorithm names")
	blocking := flag.Bool("blocking", false, "measure the blocking-consumer workload instead of per-op latency")
	producers := flag.Int("producers", 4, "blocking mode: producer goroutines")
	consumers := flag.Int("consumers", 4, "blocking mode: consumer goroutines")
	duration := flag.Duration("duration", 2*time.Second, "blocking mode: production phase length")
	interval := flag.Duration("interval", time.Millisecond, "blocking mode: producer burst period")
	burst := flag.Int("burst", 10, "blocking mode: enqueues per producer burst")
	jsonPath := flag.String("json", "", "blocking mode: write the series as JSON to this path")
	flag.Parse()

	if *blocking {
		if err := runBlocking(blockingOpts{
			algs: *algsFlag, producers: *producers, consumers: *consumers,
			duration: *duration, interval: *interval, burst: *burst, jsonPath: *jsonPath,
		}); err != nil {
			fatal(err)
		}
		return
	}

	prof, err := harness.ProfileByName(*profileName)
	if err != nil {
		fatal(err)
	}
	cfg := harness.LatencyConfig{
		Threads:     *threads,
		Iters:       *iters,
		Profile:     prof,
		SampleEvery: *sample,
	}
	fmt.Printf("per-operation latency, %s profile, %d threads, %d pairs/thread\n\n",
		prof.Name, *threads, *iters)
	var algs []harness.Algorithm
	for _, name := range strings.Split(*algsFlag, ",") {
		name = strings.TrimSpace(name)
		alg, err := harness.ByName(name)
		if err != nil {
			fatal(err)
		}
		algs = append(algs, alg)
		r, err := harness.MeasureLatency(alg, cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println(r)
	}

	// Fairness: per-thread completion spread for the same workload —
	// the starvation-freedom view of the same data.
	fmt.Printf("\nper-thread completion fairness (max/min spread; cv = stddev/mean)\n\n")
	for _, alg := range algs {
		r, err := harness.MeasureFairness(alg, harness.Config{
			Workload: harness.Pairs, Threads: *threads, Iters: *iters, Profile: prof,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Println(r)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wfqlat:", err)
	os.Exit(1)
}
