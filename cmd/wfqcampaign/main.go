// Command wfqcampaign is the repo's one sweep driver: it runs
// declarative benchmark campaigns (a matrix over
// threads × GOMAXPROCS × queue variants × workloads × batch widths),
// prints each result as a table, writes env-stamped JSON snapshots plus
// self-contained SVG scaling charts, and gates the current tree against
// committed baselines.
//
// Modes:
//
//	wfqcampaign [-out DIR] [matrix flags]
//	    Run the matrix and print one median-ops/s table per
//	    (workload, GOMAXPROCS) document. With -out, also write
//	    BENCH_campaign_<workload>_g<P>.json snapshots and CAMPAIGN_*.svg
//	    charts into DIR; without it nothing is written.
//
//	wfqcampaign -quick [-out DIR]
//	    Tiny smoke matrix (2 variants × pairs × threads {1,2} ×
//	    GOMAXPROCS {1,2}, short iters) — exercises the runner, snapshot
//	    and chart paths in seconds; used by scripts/check.sh.
//
//	wfqcampaign -gate -baseline DIR [-candidate DIR]
//	    Load baseline snapshots and compare. With -candidate, compare two
//	    snapshot directories offline (deterministic; what check.sh runs).
//	    Without it, RE-MEASURE every baseline cell against the current
//	    tree first — the live gate, meaningful on the host that produced
//	    the baseline. Exits 1 listing every offending cell when any cell's
//	    median- (or min-) derived ops/sec drops more than -tolerance.
//
//	wfqcampaign -degrade 0.4 -baseline DIR -out DIR2
//	    Write a copy of the baseline slowed by 40% — the injected
//	    regression the gate must demonstrably fail on (check.sh asserts
//	    exactly that).
//
// The matrix flags: -variants (harness algorithm names; an unknown name
// lists the registered ones), -workloads (pairs, fifty, batchpairs,
// batchenq), -threads, -procs (GOMAXPROCS values), -iters, -repeats,
// -profile, -batch (batch widths; each explicit width labels its cells
// "<variant> [k=N]"). Cells with threads > GOMAXPROCS are stamped
// oversubscribed and warned about: they measure scheduler multiplexing,
// not parallelism.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"wfq/internal/campaign"
)

func main() {
	var (
		out       = flag.String("out", "", "directory for snapshots and SVG charts (run mode writes nothing without it)")
		variants  = flag.String("variants", "opt WF (1+2),fast WF,sharded WF,ring LF,ring WF", "comma-separated harness algorithm names")
		workloads = flag.String("workloads", "pairs,batchpairs", "comma-separated workloads: pairs, fifty, batchpairs, batchenq")
		threads   = flag.String("threads", "1,2,4,8", "comma-separated thread counts")
		procs     = flag.String("procs", "1,2,4,8", "comma-separated GOMAXPROCS values")
		iters     = flag.Int("iters", 20000, "per-thread iteration budget (elements on batch workloads)")
		repeats   = flag.Int("repeats", 3, "measured runs per cell")
		profile   = flag.String("profile", "default", "base scheduler profile: default, preempt or oversub")
		batch     = flag.String("batch", "", "comma-separated batch widths for the batch workloads (empty = default 8, unlabelled)")
		quick     = flag.Bool("quick", false, "tiny smoke matrix (overrides the matrix flags)")

		gate      = flag.Bool("gate", false, "gate mode: compare against -baseline instead of writing snapshots")
		baseline  = flag.String("baseline", "", "baseline snapshot directory (gate and degrade modes)")
		candidate = flag.String("candidate", "", "candidate snapshot directory; empty in gate mode re-measures the baseline cells live")
		tolerance = flag.Float64("tolerance", campaign.DefaultTolerance, "allowed fractional slowdown before the gate fails")
		metric    = flag.String("metric", "median", "throughput statistic the gate compares: median or min")
		confirms  = flag.Int("confirms", 2, "live gate only: re-measure offending cells this many times and keep only regressions that reproduce every time")
		degrade   = flag.Float64("degrade", 0, "write a baseline copy slowed by this fraction into -out (injected-regression demo)")
	)
	flag.Parse()

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}

	switch {
	case *degrade > 0:
		if *baseline == "" || *out == "" {
			fatal(fmt.Errorf("-degrade needs -baseline and -out"))
		}
		docs, err := campaign.LoadDir(*baseline)
		if err != nil {
			fatal(err)
		}
		slowed, err := campaign.Degrade(docs, *degrade)
		if err != nil {
			fatal(err)
		}
		paths, err := campaign.WriteSnapshots(*out, slowed)
		if err != nil {
			fatal(err)
		}
		logf("wfqcampaign: wrote %d degraded snapshot(s) (-%.0f%% throughput) into %s", len(paths), *degrade*100, *out)

	case *gate:
		if *baseline == "" {
			fatal(fmt.Errorf("-gate needs -baseline"))
		}
		base, err := campaign.LoadDir(*baseline)
		if err != nil {
			fatal(err)
		}
		// -iters/-repeats override the baseline's recorded budget only
		// when given explicitly; their defaults are for run mode.
		itersOv, repeatsOv := 0, 0
		flag.Visit(func(fl *flag.Flag) {
			switch fl.Name {
			case "iters":
				itersOv = *iters
			case "repeats":
				repeatsOv = *repeats
			}
		})
		var cand []*campaign.Doc
		if *candidate != "" {
			if cand, err = campaign.LoadDir(*candidate); err != nil {
				fatal(err)
			}
		} else {
			logf("wfqcampaign: re-measuring %d baseline document(s) against the current tree", len(base))
			if cand, err = campaign.Remeasure(base, itersOv, repeatsOv, logf); err != nil {
				fatal(err)
			}
		}
		opts := campaign.GateOptions{Tolerance: *tolerance, Metric: *metric}
		rep, err := campaign.Compare(base, cand, opts)
		if err != nil {
			fatal(err)
		}
		// Live mode de-flaking: a short cell can lose 30-40% to scheduler
		// noise on a shared host, so every flagged cell is re-measured
		// -confirms more times and reported only if it regresses EVERY
		// time. Offline (-candidate) comparisons stay deterministic.
		if *candidate == "" {
			for attempt := 1; attempt <= *confirms && len(rep.Regressions) > 0; attempt++ {
				offending := map[campaign.CellKey]bool{}
				for _, reg := range rep.Regressions {
					offending[reg.Key] = true
				}
				sub := campaign.FilterCells(base, func(k campaign.CellKey) bool { return offending[k] })
				logf("wfqcampaign: confirming %d offending cell(s), attempt %d/%d",
					len(offending), attempt, *confirms)
				subCand, err := campaign.Remeasure(sub, itersOv, repeatsOv, logf)
				if err != nil {
					fatal(err)
				}
				subRep, err := campaign.Compare(sub, subCand, opts)
				if err != nil {
					fatal(err)
				}
				rep.Regressions = subRep.Regressions
			}
		}
		fmt.Print(rep.Summary())
		if rep.Failed() {
			os.Exit(1)
		}

	default:
		spec := campaign.Spec{
			Variants:  splitTrim(*variants),
			Workloads: splitTrim(*workloads),
			Threads:   mustInts(*threads),
			Procs:     mustInts(*procs),
			Iters:     *iters,
			Repeats:   *repeats,
			Profile:   *profile,
			Batch:     mustInts(*batch),
			Logf:      logf,
		}
		if *quick {
			spec.Variants = []string{"fast WF", "ring WF"}
			spec.Workloads = []string{"pairs"}
			spec.Threads = []int{1, 2}
			spec.Procs = []int{1, 2}
			spec.Iters = 2000
			spec.Repeats = 1
		}
		if max := runtime.NumCPU(); maxInts(spec.Procs) > max {
			logf("wfqcampaign: NOTE: host has %d CPU(s); GOMAXPROCS above that oversubscribes the scheduler and the curves measure multiplexing, not hardware parallelism (stamped in env.num_cpu)", max)
		}
		docs, err := campaign.Run(spec)
		if err != nil {
			fatal(err)
		}
		for _, d := range docs {
			fmt.Println(campaign.Table(d))
		}
		if *out == "" {
			return
		}
		paths, err := campaign.WriteSnapshots(*out, docs)
		if err != nil {
			fatal(err)
		}
		charts, err := campaign.WriteCharts(*out, docs)
		if err != nil {
			fatal(err)
		}
		for _, p := range append(paths, charts...) {
			logf("wfqcampaign: wrote %s", p)
		}
	}
}

func splitTrim(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func mustInts(s string) []int {
	var out []int
	for _, part := range splitTrim(s) {
		n, err := strconv.Atoi(part)
		if err != nil {
			fatal(fmt.Errorf("bad integer %q", part))
		}
		out = append(out, n)
	}
	return out
}

func maxInts(xs []int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wfqcampaign:", err)
	os.Exit(1)
}
