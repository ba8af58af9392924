package campaign

import (
	"fmt"
	"sort"
	"strings"
)

// CellKey identifies a matrix cell across snapshot generations. Cells
// are matched by requested GOMAXPROCS (the document's), so a baseline
// produced on a narrower machine still matches by configuration.
type CellKey struct {
	Series     string
	Workload   string
	Threads    int
	GOMAXPROCS int
}

func (k CellKey) String() string {
	return fmt.Sprintf("[series=%q workload=%s threads=%d gomaxprocs=%d]",
		k.Series, k.Workload, k.Threads, k.GOMAXPROCS)
}

// GateOptions configures a comparison run.
type GateOptions struct {
	// Tolerance is the allowed fractional slowdown, e.g. 0.25 allows a
	// candidate down to 75% of the baseline throughput. Zero means the
	// default of 0.25.
	Tolerance float64
	// Metric picks the throughput statistic: "median" (default) or
	// "min". Never the mean — see EXPERIMENTS.md's comparison
	// convention: noise only ever slows a repeat down, so mean-derived
	// ops/sec fakes regressions on a shared host.
	Metric string
}

// DefaultTolerance is the gate's allowed fractional slowdown when
// GateOptions.Tolerance is zero. Generous on purpose: the committed
// baselines come from shared, sometimes single-CPU hosts, and a perf
// gate that cries wolf gets deleted.
const DefaultTolerance = 0.25

// Regression is one cell that slowed beyond tolerance.
type Regression struct {
	Key       CellKey
	Baseline  float64 // baseline ops/sec under the chosen metric
	Candidate float64 // candidate ops/sec under the chosen metric
}

// Slowdown reports the fractional throughput loss (0.37 = -37%).
func (r Regression) Slowdown() float64 {
	if r.Baseline <= 0 {
		return 0
	}
	return 1 - r.Candidate/r.Baseline
}

// GateReport is the outcome of one baseline/candidate comparison.
type GateReport struct {
	Metric    string
	Tolerance float64
	// Compared counts cells present in both sides with usable values.
	Compared int
	// Regressions are the offending cells, worst slowdown first.
	Regressions []Regression
	// MissingInCandidate / MissingInBaseline list unmatched keys —
	// reported, but not failures, so a quick candidate subset can gate
	// against the full committed baseline.
	MissingInCandidate []CellKey
	MissingInBaseline  []CellKey
	// Skipped counts matched cells without a usable metric on one side
	// (e.g. a zero from a pre-campaign snapshot).
	Skipped int
}

// Failed reports whether the gate must exit nonzero: any regression, or
// nothing compared at all (a vacuous pass is a failure mode, not a pass).
func (r *GateReport) Failed() bool {
	return len(r.Regressions) > 0 || r.Compared == 0
}

// metricValue extracts the configured throughput statistic from a cell.
func metricValue(c Cell, metric string) float64 {
	if metric == "min" {
		return c.OpsPerSecMin
	}
	return c.OpsPerSecMedian
}

// Compare matches candidate cells against baseline cells by CellKey and
// flags every one whose throughput fell beyond tolerance.
func Compare(baseline, candidate []*Doc, o GateOptions) (*GateReport, error) {
	switch o.Metric {
	case "":
		o.Metric = "median"
	case "median", "min":
	default:
		return nil, fmt.Errorf("campaign: unknown gate metric %q (want median or min)", o.Metric)
	}
	if o.Tolerance == 0 {
		o.Tolerance = DefaultTolerance
	}
	if o.Tolerance < 0 || o.Tolerance >= 1 {
		return nil, fmt.Errorf("campaign: tolerance %v out of range (0,1)", o.Tolerance)
	}

	index := func(docs []*Doc) map[CellKey]Cell {
		m := map[CellKey]Cell{}
		for _, d := range docs {
			for _, c := range d.Cells {
				m[CellKey{c.Series, c.Workload, c.Threads, d.GOMAXPROCS}] = c
			}
		}
		return m
	}
	base := index(baseline)
	cand := index(candidate)

	rep := &GateReport{Metric: o.Metric, Tolerance: o.Tolerance}
	for k, bc := range base {
		cc, ok := cand[k]
		if !ok {
			rep.MissingInCandidate = append(rep.MissingInCandidate, k)
			continue
		}
		bv, cv := metricValue(bc, o.Metric), metricValue(cc, o.Metric)
		if bv <= 0 || cv < 0 {
			rep.Skipped++
			continue
		}
		rep.Compared++
		if cv < bv*(1-o.Tolerance) {
			rep.Regressions = append(rep.Regressions, Regression{Key: k, Baseline: bv, Candidate: cv})
		}
	}
	for k := range cand {
		if _, ok := base[k]; !ok {
			rep.MissingInBaseline = append(rep.MissingInBaseline, k)
		}
	}
	sort.Slice(rep.Regressions, func(i, j int) bool {
		return rep.Regressions[i].Slowdown() > rep.Regressions[j].Slowdown()
	})
	sortKeys(rep.MissingInCandidate)
	sortKeys(rep.MissingInBaseline)
	return rep, nil
}

func sortKeys(ks []CellKey) {
	sort.Slice(ks, func(i, j int) bool { return ks[i].String() < ks[j].String() })
}

// Summary renders the human-readable gate verdict, naming every
// offending cell.
func (r *GateReport) Summary() string {
	var b strings.Builder
	verdict := "PASS"
	if r.Failed() {
		verdict = "FAIL"
	}
	fmt.Fprintf(&b, "gate: %s metric=%s tolerance=%.0f%%: %d compared, %d regressed, %d skipped\n",
		verdict, r.Metric, r.Tolerance*100, r.Compared, len(r.Regressions), r.Skipped)
	if r.Compared == 0 {
		b.WriteString("gate:   nothing compared — no matching cells between baseline and candidate\n")
	}
	for _, reg := range r.Regressions {
		fmt.Fprintf(&b, "gate:   REGRESSION %s %s -> %s ops/s (-%.1f%%)\n",
			reg.Key, compactOps(reg.Baseline), compactOps(reg.Candidate), reg.Slowdown()*100)
	}
	if n := len(r.MissingInCandidate); n > 0 {
		fmt.Fprintf(&b, "gate:   note: %d baseline cell(s) not in candidate (first: %s)\n",
			n, r.MissingInCandidate[0])
	}
	if n := len(r.MissingInBaseline); n > 0 {
		fmt.Fprintf(&b, "gate:   note: %d candidate cell(s) not in baseline (first: %s)\n",
			n, r.MissingInBaseline[0])
	}
	return b.String()
}

func compactOps(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.2fk", v/1e3)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

// Degrade returns a deep copy of docs with every cell slowed by frac
// (0.4 = 40% throughput loss): timing statistics scale up, throughput
// statistics scale down, consistently. It exists to demonstrate and test
// the gate — an injected regression MUST fail it.
func Degrade(docs []*Doc, frac float64) ([]*Doc, error) {
	if frac <= 0 || frac >= 1 {
		return nil, fmt.Errorf("campaign: degrade fraction %v out of range (0,1)", frac)
	}
	keep := 1 - frac
	var out []*Doc
	for _, d := range docs {
		nd := *d
		nd.Cells = append([]Cell(nil), d.Cells...)
		for i := range nd.Cells {
			c := &nd.Cells[i]
			c.SecMean /= keep
			c.SecStd /= keep
			c.SecMin /= keep
			c.SecMedian /= keep
			c.OpsPerSec *= keep
			c.OpsPerSecMedian *= keep
			c.OpsPerSecMin *= keep
		}
		out = append(out, &nd)
	}
	return out, nil
}

// FilterCells returns a copy of docs keeping only cells whose key
// satisfies keep; documents left without cells are dropped. The live
// gate uses it to re-measure ONLY the offending cells of a failed
// comparison — on shared hosts a single short cell can lose 30-40% to
// scheduler noise, so a regression must reproduce on every confirmation
// attempt before the gate reports it.
func FilterCells(docs []*Doc, keep func(CellKey) bool) []*Doc {
	var out []*Doc
	for _, d := range docs {
		nd := *d
		nd.Cells = nil
		for _, c := range d.Cells {
			if keep(CellKey{c.Series, c.Workload, c.Threads, d.GOMAXPROCS}) {
				nd.Cells = append(nd.Cells, c)
			}
		}
		if len(nd.Cells) > 0 {
			out = append(out, &nd)
		}
	}
	return out
}

// Remeasure re-runs every cell configuration of the baseline documents
// against the current tree and returns candidate documents for Compare —
// the live half of `wfqcampaign -gate` when no -candidate directory is
// given. Each batch width a document holds is rebuilt from its cells'
// batch_k. itersOverride and repeatsOverride, when positive, replace the
// baseline's budget (Spec.Iters units: elements on the batch workloads);
// ops/sec statistics stay comparable because they are per-operation
// rates.
func Remeasure(baseline []*Doc, itersOverride, repeatsOverride int, logf func(string, ...any)) ([]*Doc, error) {
	var out []*Doc
	for _, d := range baseline {
		w, err := ParseWorkload(d.Workload)
		if err != nil {
			return nil, err
		}
		// The cells record their element-normalized iterations; scale
		// back up to the budget Run normalizes from.
		iters := d.Cells[0].Iters
		if isBatch(w) {
			iters *= effectiveK(d.Cells[0].BatchK)
		}
		if itersOverride > 0 {
			iters = itersOverride
		}
		repeats := d.Repeats
		if repeatsOverride > 0 {
			repeats = repeatsOverride
		}
		var variants []string
		var threads, widths []int
		seenV, seenT, seenK := map[string]bool{}, map[int]bool{}, map[int]bool{}
		for _, c := range d.Cells {
			if v := strings.TrimSuffix(c.Series, widthLabel(c.BatchK)); !seenV[v] {
				seenV[v] = true
				variants = append(variants, v)
			}
			if !seenT[c.Threads] {
				seenT[c.Threads] = true
				threads = append(threads, c.Threads)
			}
			if !seenK[c.BatchK] {
				seenK[c.BatchK] = true
				widths = append(widths, c.BatchK)
			}
		}
		docs, err := Run(Spec{
			Variants:  variants,
			Workloads: []string{d.Workload},
			Threads:   threads,
			Procs:     []int{d.GOMAXPROCS},
			Iters:     iters,
			Repeats:   repeats,
			Profile:   d.Profile,
			Batch:     widths,
			Logf:      logf,
		})
		if err != nil {
			return nil, fmt.Errorf("campaign: re-measuring %s: %w", SnapshotName(d), err)
		}
		out = append(out, docs...)
	}
	return out, nil
}
