// Command wfqcheck stress-tests the linearizability of every queue
// implementation: it records genuinely concurrent histories and verifies
// each against the sequential FIFO specification with the Wing–Gong
// checker — the machine-checkable counterpart of the paper's §5
// correctness argument. Sharded frontends (queues.Ticketed) are checked
// against their own specification: the history is partitioned by each
// operation's dispatch ticket and every shard's subhistory must
// linearize as a FIFO.
//
// Usage:
//
//	wfqcheck [-algs "base WF,opt WF (1+2)"] [-rounds 50] [-threads 4]
//	         [-ops 40] [-seed 1] [-v]
//
// Exit status is non-zero if any history fails to linearize.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"

	"wfq/internal/harness"
	"wfq/internal/lincheck"
	"wfq/internal/queues"
	"wfq/internal/xrand"
)

func main() {
	algsFlag := flag.String("algs", allNames(), "comma-separated algorithm names")
	rounds := flag.Int("rounds", 50, "histories to record and check per algorithm")
	threads := flag.Int("threads", 4, "concurrent worker threads per history")
	ops := flag.Int("ops", 40, "operations per thread per history")
	seed := flag.Uint64("seed", 1, "base seed for the op mix")
	verbose := flag.Bool("v", false, "print every verdict, not just failures")
	flag.Parse()

	failed := 0
	for _, name := range strings.Split(*algsFlag, ",") {
		name = strings.TrimSpace(name)
		alg, err := harness.ByName(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wfqcheck:", err)
			os.Exit(2)
		}
		unknown := 0
		for r := 0; r < *rounds; r++ {
			res := checkOnce(alg, *threads, *ops, *seed+uint64(r))
			switch res {
			case lincheck.Linearizable:
				if *verbose {
					fmt.Printf("%-14s round %3d: %v\n", alg.Name, r, res)
				}
			case lincheck.Unknown:
				unknown++
			default:
				failed++
				fmt.Printf("%-14s round %3d: %v\n", alg.Name, r, res)
			}
		}
		fmt.Printf("%-14s %d rounds checked, %d unknown (budget), %d FAILED\n",
			alg.Name, *rounds, unknown, failed)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

func allNames() string {
	var names []string
	for _, a := range harness.AllAlgorithms() {
		names = append(names, a.Name)
	}
	return strings.Join(names, ",")
}

func checkOnce(alg harness.Algorithm, threads, ops int, seed uint64) lincheck.Result {
	q := alg.New(threads)
	// A sharded frontend promises per-shard FIFO, not a single FIFO:
	// record each operation's dispatch shard from its ticket and check
	// the partitioned (bag-of-FIFOs) specification instead.
	tq, ticketed := q.(queues.Ticketed)
	rec := lincheck.NewRecorder(threads, ops)
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			rng := xrand.New(seed*7919 + uint64(tid))
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
		fmt.Fprintln(os.Stderr, "wfqcheck:", err)
		os.Exit(2)
	}
	return res
}
