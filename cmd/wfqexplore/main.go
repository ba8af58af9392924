// Command wfqexplore runs the deterministic interleaving explorer from
// the command line: it enumerates schedules of a small concurrent
// program over a chosen queue implementation and checks every
// interleaving for linearizability and value conservation.
//
// Usage:
//
//	wfqexplore [-alg "base WF"] [-progs "e1,e2;d,d"] [-initial "5,6"]
//	           [-max 20000] [-random] [-seed 1]
//
// The -progs grammar: threads separated by ';', ops by ','; an op is
// either eN (enqueue value N) or d (dequeue). The default program races
// an enqueuer against a dequeuer.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"wfq/internal/explore"
	"wfq/internal/harness"
)

func main() {
	algName := flag.String("alg", "base WF", "queue algorithm (an unknown name lists the registered ones)")
	progsFlag := flag.String("progs", "e1;d", "program: threads ';'-separated, ops ','-separated, op = eN | d")
	initFlag := flag.String("initial", "", "initial queue contents, comma-separated")
	maxRuns := flag.Int("max", 20000, "interleaving budget")
	random := flag.Bool("random", false, "random sampling instead of DFS")
	seed := flag.Uint64("seed", 1, "random sampling seed")
	flag.Parse()

	alg, err := harness.ByName(*algName)
	if err != nil {
		fatal(err)
	}
	progs, err := parseProgs(*progsFlag)
	if err != nil {
		fatal(err)
	}
	var initial []int64
	if *initFlag != "" {
		for _, f := range strings.Split(*initFlag, ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
			if err != nil {
				fatal(fmt.Errorf("bad initial value %q", f))
			}
			initial = append(initial, v)
		}
	}

	rep, err := explore.Explore(explore.Options{
		Progs:    progs,
		NewQueue: alg.New,
		Initial:  initial,
		MaxRuns:  *maxRuns,
		Random:   *random,
		Seed:     *seed,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("algorithm:     %s\n", alg.Name)
	fmt.Printf("threads:       %d\n", len(progs))
	fmt.Printf("interleavings: %d (complete=%v, max schedule length %d)\n",
		rep.Runs, rep.Complete, rep.MaxDecisions)
	if len(rep.Failures) == 0 {
		fmt.Println("result:        all interleavings linearizable, values conserved")
		return
	}
	fmt.Printf("result:        %d VIOLATIONS\n", len(rep.Failures))
	for i, f := range rep.Failures {
		fmt.Printf("  [%d] %s\n      schedule: %v\n", i, f.Reason, f.Schedule)
		if i == 9 {
			fmt.Printf("  ... and %d more\n", len(rep.Failures)-10)
			break
		}
	}
	os.Exit(1)
}

func parseProgs(s string) ([][]explore.Op, error) {
	var progs [][]explore.Op
	for _, th := range strings.Split(s, ";") {
		var prog []explore.Op
		for _, opStr := range strings.Split(th, ",") {
			opStr = strings.TrimSpace(opStr)
			switch {
			case opStr == "d":
				prog = append(prog, explore.DeqOp())
			case strings.HasPrefix(opStr, "e"):
				v, err := strconv.ParseInt(opStr[1:], 10, 64)
				if err != nil {
					return nil, fmt.Errorf("bad op %q (want eN or d)", opStr)
				}
				prog = append(prog, explore.EnqOp(v))
			default:
				return nil, fmt.Errorf("bad op %q (want eN or d)", opStr)
			}
		}
		if len(prog) == 0 {
			return nil, fmt.Errorf("empty thread program in %q", s)
		}
		progs = append(progs, prog)
	}
	return progs, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wfqexplore:", err)
	os.Exit(1)
}
