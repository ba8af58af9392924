// Package campaign implements the many-core scaling observatory: a
// declarative benchmark campaign runner in the spirit of the kubernetes
// hack/benchmark campaign scripts — a matrix over
// threads × GOMAXPROCS × queue variants × workloads driven through the
// existing harness.Sweep plumbing, one env-stamped JSON snapshot
// document per (workload, GOMAXPROCS) written under results/, plus
// self-contained SVG scaling charts rendered by internal/report with no
// external dependencies.
//
// On top of the snapshots sits a perf regression gate (gate.go): it
// loads committed baseline documents, matches cells by
// (series, workload, threads, gomaxprocs), compares noise-robust
// statistics — median- or min-derived ops/sec, never the mean — and
// reports every cell that regressed beyond a tolerance. cmd/wfqcampaign
// is the driver; scripts/check.sh and CI run it as the repo's first
// automated perf gate.
package campaign

import (
	"fmt"
	"os/exec"
	"runtime"
	"sort"
	"strings"

	"wfq/internal/harness"
)

// Env stamps a snapshot with the machine and build that produced it.
// GOMAXPROCS here is the process-level value at campaign start; every
// Cell additionally records the effective value it ran under, which is
// the authoritative one because the campaign overrides it per document.
type Env struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	GitSHA     string `json:"git_sha"`
}

// CaptureEnv collects the Env of this process.
func CaptureEnv() Env {
	env := Env{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GitSHA:     "unknown",
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.GitSHA = strings.TrimSpace(string(out))
	}
	return env
}

// Spec declares one campaign matrix. Every combination of
// Procs × Workloads × Variants × Threads becomes one measured cell.
type Spec struct {
	// Variants are harness algorithm names (harness.ByName).
	Variants []string
	// Workloads are short workload names: pairs, fifty, batchpairs,
	// batchenq.
	Workloads []string
	// Threads are the worker counts of each sweep (the x axis).
	Threads []int
	// Procs are the GOMAXPROCS values; each gets its own snapshot
	// document per workload.
	Procs []int
	// Iters is the per-thread iteration budget. On the batch workloads it
	// counts ELEMENTS per thread (iterations scale down by the batch
	// width), so every cell moves the same element volume.
	Iters int
	// Repeats is the number of measured runs per cell.
	Repeats int
	// Profile names the base scheduler profile ("default", "preempt",
	// "oversub"); empty means default. The campaign overlays its
	// per-document GOMAXPROCS on top of it.
	Profile string
	// Batch lists the batch widths of the batch workloads. Each width
	// runs as its own sweep and labels its cells "<variant> [k=N]"; 0
	// stands for the harness default (8) and adds no label. Empty means
	// one sweep at the default. Other workloads ignore it.
	Batch []int
	// Logf receives progress lines and oversubscription warnings; nil
	// silences them.
	Logf func(format string, args ...any)
}

func (s Spec) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// Cell is one measured matrix cell. The three ops/sec fields derive from
// the mean, median and minimum repeat time respectively; the gate keys
// off median or min per the repo's comparison convention (EXPERIMENTS.md)
// because GC pauses and scheduler noise only ever slow a repeat down.
type Cell struct {
	Series   string `json:"series"`
	Workload string `json:"workload"`
	Threads  int    `json:"threads"`
	// GOMAXPROCS is the effective scheduler width during this cell's
	// measured runs, captured inside the harness after the profile
	// override applied.
	GOMAXPROCS int `json:"gomaxprocs"`
	// Oversubscribed marks Threads > GOMAXPROCS: the cell measures
	// scheduler multiplexing, not parallelism, and scaling claims must
	// not be drawn from it.
	Oversubscribed bool `json:"oversubscribed,omitempty"`
	Shards         int  `json:"shards,omitempty"`
	// BatchK is the explicit batch width the cell ran at, 0 for the
	// default width (or a non-batch workload). It is the N of the
	// series label's " [k=N]" suffix.
	BatchK          int     `json:"batch_k,omitempty"`
	Iters           int     `json:"iters"`
	OpsPerIter      int     `json:"ops_per_iter"`
	SecMean         float64 `json:"sec_mean"`
	SecStd          float64 `json:"sec_std"`
	SecMin          float64 `json:"sec_min"`
	SecMedian       float64 `json:"sec_median"`
	OpsPerSec       float64 `json:"ops_per_sec"`
	OpsPerSecMedian float64 `json:"ops_per_sec_median"`
	OpsPerSecMin    float64 `json:"ops_per_sec_min"`
	AllocsPerOp     float64 `json:"allocs_per_op"`
	BytesPerOp      float64 `json:"bytes_per_op"`
	FastHits        int64   `json:"fast_hits,omitempty"`
	FastFallbacks   int64   `json:"fast_fallbacks,omitempty"`
	BatchEnqs       int64   `json:"batch_enqs,omitempty"`
	BatchEnqElems   int64   `json:"batch_enq_elems,omitempty"`
}

// FastHitRatio reports the fraction of operations the fast path absorbed,
// or -1 when the variant exposes no fast-path counters.
func (c Cell) FastHitRatio() float64 {
	total := c.FastHits + c.FastFallbacks
	if total == 0 {
		return -1
	}
	return float64(c.FastHits) / float64(total)
}

// Doc is one snapshot document: every variant's thread sweep for one
// (workload, GOMAXPROCS) point of the matrix. Serialized as
// BENCH_campaign_<workload>_g<procs>.json.
type Doc struct {
	SchemaVersion int    `json:"schema_version"`
	Campaign      string `json:"campaign"`
	Workload      string `json:"workload"`
	// GOMAXPROCS is the requested scheduler width of this document; the
	// cells record the effective one.
	GOMAXPROCS int    `json:"gomaxprocs"`
	Profile    string `json:"profile"`
	// Iters is the per-thread budget the matrix was given (Spec.Iters);
	// each cell records the iterations it actually ran. Documents written
	// before cells recorded batch_k hold the batch workloads'
	// element-normalized count here instead.
	Iters   int    `json:"iters"`
	Repeats int    `json:"repeats"`
	Env     Env    `json:"env"`
	Cells   []Cell `json:"cells"`
}

// SchemaVersion is the current snapshot document schema.
const SchemaVersion = 1

// ParseWorkload resolves a short workload name.
func ParseWorkload(name string) (harness.Workload, error) {
	switch name {
	case "pairs":
		return harness.Pairs, nil
	case "fifty":
		return harness.Fifty, nil
	case "batchpairs", "batch-pairs":
		return harness.BatchPairs, nil
	case "batchenq", "batch-enq":
		return harness.BatchEnq, nil
	default:
		return 0, fmt.Errorf("campaign: unknown workload %q (want pairs, fifty, batchpairs or batchenq)", name)
	}
}

// WorkloadShort maps a harness workload back to its short campaign name.
func WorkloadShort(w harness.Workload) string {
	switch w {
	case harness.Pairs:
		return "pairs"
	case harness.Fifty:
		return "fifty"
	case harness.BatchPairs:
		return "batchpairs"
	case harness.BatchEnq:
		return "batchenq"
	default:
		return fmt.Sprintf("workload%d", int(w))
	}
}

func (s Spec) validate() error {
	if len(s.Variants) == 0 || len(s.Workloads) == 0 || len(s.Threads) == 0 || len(s.Procs) == 0 {
		return fmt.Errorf("campaign: matrix needs at least one variant, workload, thread count and GOMAXPROCS value")
	}
	if s.Iters <= 0 || s.Repeats <= 0 {
		return fmt.Errorf("campaign: Iters and Repeats must be positive (got %d, %d)", s.Iters, s.Repeats)
	}
	for _, k := range s.Batch {
		if k < 0 {
			return fmt.Errorf("campaign: bad batch width %d", k)
		}
	}
	for _, p := range s.Procs {
		if p < 1 {
			return fmt.Errorf("campaign: bad GOMAXPROCS value %d", p)
		}
	}
	for _, n := range s.Threads {
		if n < 1 {
			return fmt.Errorf("campaign: bad thread count %d", n)
		}
	}
	return nil
}

// Run executes the matrix and returns one Doc per (workload, procs)
// point, cells ordered by batch width, then variant, then thread count.
// Documents are ordered workload-major, then by ascending GOMAXPROCS.
func Run(spec Spec) ([]*Doc, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	var algs []harness.Algorithm
	shardsByAlg := map[string]int{}
	for _, name := range spec.Variants {
		a, err := harness.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("campaign: %w", err)
		}
		algs = append(algs, a)
		shardsByAlg[a.Name] = a.Shards
	}
	profName := spec.Profile
	if profName == "" {
		profName = "default"
	}
	baseProf, err := harness.ProfileByName(profName)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	env := CaptureEnv()
	procs := append([]int(nil), spec.Procs...)
	sort.Ints(procs)

	var docs []*Doc
	for _, wlName := range spec.Workloads {
		w, err := ParseWorkload(wlName)
		if err != nil {
			return nil, err
		}
		wl := WorkloadShort(w)
		widths := []int{0}
		if isBatch(w) && len(spec.Batch) > 0 {
			widths = spec.Batch
		}
		for _, p := range procs {
			prof := baseProf
			prof.GOMAXPROCS = p
			doc := &Doc{
				SchemaVersion: SchemaVersion,
				Campaign:      fmt.Sprintf("%s_g%d", wl, p),
				Workload:      wl,
				GOMAXPROCS:    p,
				Profile:       profName,
				Iters:         spec.Iters,
				Repeats:       spec.Repeats,
				Env:           env,
			}
			for _, k := range widths {
				// Element-normalized iteration budget on the batch
				// workloads.
				iters := spec.Iters
				if isBatch(w) {
					if iters = spec.Iters / effectiveK(k); iters == 0 {
						iters = 1
					}
				}
				spec.logf("campaign: measuring %s%s g%d (%d variants × %d thread counts × %d repeats)",
					wl, widthLabel(k), p, len(algs), len(spec.Threads), spec.Repeats)
				pts, err := harness.Sweep(algs, spec.Threads, harness.Config{
					Workload: w, Iters: iters, Seed: 1, Profile: prof, BatchK: k,
				}, spec.Repeats)
				if err != nil {
					return nil, fmt.Errorf("campaign: %s%s g%d: %w", wl, widthLabel(k), p, err)
				}
				for _, pt := range pts {
					c := cellFromPoint(pt, wl, shardsByAlg[pt.Algorithm], k)
					if c.Oversubscribed {
						spec.logf("campaign: WARNING: cell [%s %s threads=%d gomaxprocs=%d] is oversubscribed: it measures scheduler multiplexing, not parallelism",
							c.Series, c.Workload, c.Threads, c.GOMAXPROCS)
					}
					doc.Cells = append(doc.Cells, c)
				}
			}
			docs = append(docs, doc)
		}
	}
	return docs, nil
}

func isBatch(w harness.Workload) bool {
	return w == harness.BatchPairs || w == harness.BatchEnq
}

// effectiveK resolves a batch width, 0 standing for the harness default.
func effectiveK(k int) int {
	if k == 0 {
		return 8
	}
	return k
}

// widthLabel is the series suffix of a cell run at batch width k: empty
// for the default width, " [k=N]" for an explicit one.
func widthLabel(k int) string {
	if k == 0 {
		return ""
	}
	return fmt.Sprintf(" [k=%d]", k)
}

// cellFromPoint converts one harness sweep point, run at batch width k,
// into a snapshot cell.
func cellFromPoint(pt harness.SweepPoint, workload string, shards, k int) Cell {
	totalOps := float64(pt.OpsPerIter * pt.Iters * pt.Threads)
	ops := func(sec float64) float64 {
		if sec <= 0 {
			return 0
		}
		return totalOps / sec
	}
	return Cell{
		Series:          pt.Algorithm + widthLabel(k),
		Workload:        workload,
		Threads:         pt.Threads,
		GOMAXPROCS:      pt.GOMAXPROCS,
		Oversubscribed:  pt.Threads > pt.GOMAXPROCS,
		Shards:          shards,
		BatchK:          k,
		Iters:           pt.Iters,
		OpsPerIter:      pt.OpsPerIter,
		SecMean:         pt.Summary.Mean,
		SecStd:          pt.Summary.Std,
		SecMin:          pt.Summary.Min,
		SecMedian:       pt.Summary.Median,
		OpsPerSec:       ops(pt.Summary.Mean),
		OpsPerSecMedian: ops(pt.Summary.Median),
		OpsPerSecMin:    ops(pt.Summary.Min),
		AllocsPerOp:     pt.AllocsPerOp,
		BytesPerOp:      pt.BytesPerOp,
		FastHits:        pt.Metrics.FastHits(),
		FastFallbacks:   pt.Metrics.FastFallbacks,
		BatchEnqs:       pt.Metrics.BatchEnqs,
		BatchEnqElems:   pt.Metrics.BatchEnqElems,
	}
}
