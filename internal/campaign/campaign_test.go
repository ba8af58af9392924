package campaign

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestLiveTinyMatrix drives the full pipeline — matrix run, per-cell
// GOMAXPROCS stamping, snapshot write/load round-trip, chart rendering —
// on a matrix small enough for the unit-test budget.
func TestLiveTinyMatrix(t *testing.T) {
	var logs []string
	docs, err := Run(Spec{
		Variants:  []string{"fast WF"},
		Workloads: []string{"pairs"},
		Threads:   []int{1, 2},
		Procs:     []int{1, 2},
		Iters:     300,
		Repeats:   1,
		Logf:      func(f string, a ...any) { logs = append(logs, strings.TrimSpace(f)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 2 {
		t.Fatalf("want 2 docs (pairs g1, pairs g2), got %d", len(docs))
	}
	for _, d := range docs {
		if len(d.Cells) != 2 {
			t.Fatalf("doc %s: want 2 cells, got %d", d.Campaign, len(d.Cells))
		}
		for _, c := range d.Cells {
			// The effective GOMAXPROCS must be the per-document override,
			// not the process-level value — the stamping bug this PR fixes.
			if c.GOMAXPROCS != d.GOMAXPROCS {
				t.Errorf("cell [%s threads=%d]: effective gomaxprocs %d, want %d",
					c.Series, c.Threads, c.GOMAXPROCS, d.GOMAXPROCS)
			}
			if want := c.Threads > d.GOMAXPROCS; c.Oversubscribed != want {
				t.Errorf("cell [%s threads=%d g=%d]: oversubscribed=%v, want %v",
					c.Series, c.Threads, d.GOMAXPROCS, c.Oversubscribed, want)
			}
			if c.OpsPerSecMedian <= 0 || c.OpsPerSecMin <= 0 || c.OpsPerSec <= 0 {
				t.Errorf("cell [%s threads=%d]: non-positive throughput %+v", c.Series, c.Threads, c)
			}
		}
	}
	// The oversubscribed cell (threads=2, g=1) must have been warned about.
	warned := false
	for _, l := range logs {
		if strings.Contains(l, "WARNING") && strings.Contains(l, "oversubscribed") {
			warned = true
		}
	}
	if !warned {
		t.Errorf("no oversubscription warning logged; logs: %q", logs)
	}

	dir := t.TempDir()
	paths, err := WriteSnapshots(dir, docs)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("want 2 snapshot files, got %v", paths)
	}
	back, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// LoadDir sorts by filename, which matches g1 < g2 here.
	if !reflect.DeepEqual(docs, back) {
		t.Fatal("snapshot write/load round-trip mismatch")
	}

	tab := Table(docs[0])
	if !reflect.DeepEqual(tab.Series, []string{"fast WF"}) || !reflect.DeepEqual(tab.Rows(), []string{"1", "2"}) {
		t.Fatalf("table series %q rows %q, want [fast WF] x [1 2]", tab.Series, tab.Rows())
	}
	if c, _ := tab.Get("2", "fast WF"); c.Value != docs[0].Cells[1].OpsPerSecMedian {
		t.Fatalf("table cell %v, want the median ops/s %v", c.Value, docs[0].Cells[1].OpsPerSecMedian)
	}

	charts, err := WriteCharts(dir, docs)
	if err != nil {
		t.Fatal(err)
	}
	wantCharts := []string{
		"CAMPAIGN_pairs_allocs.svg",
		"CAMPAIGN_pairs_fasthit.svg",
		"CAMPAIGN_pairs_g1_ops.svg",
		"CAMPAIGN_pairs_g2_ops.svg",
		"CAMPAIGN_pairs_scaling.svg",
	}
	var got []string
	for _, p := range charts {
		got = append(got, filepath.Base(p))
		buf, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(buf), "<svg ") {
			t.Errorf("%s does not start with <svg", p)
		}
	}
	if !reflect.DeepEqual(got, wantCharts) {
		t.Fatalf("charts %v, want %v", got, wantCharts)
	}
}

// TestBatchItersNormalization pins the element-normalized budget: on the
// batch workloads Iters counts elements, so iterations scale down by the
// batch width and every cell moves the same volume.
func TestBatchItersNormalization(t *testing.T) {
	docs, err := Run(Spec{
		Variants:  []string{"fast WF"},
		Workloads: []string{"batchpairs"},
		Threads:   []int{1},
		Procs:     []int{1},
		Iters:     64,
		Repeats:   1,
		Batch:     []int{8},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := docs[0].Cells[0]
	if c.Series != "fast WF [k=8]" || c.BatchK != 8 {
		t.Fatalf("explicit width not recorded: series %q batch_k %d", c.Series, c.BatchK)
	}
	if c.Iters != 8 || c.OpsPerIter != 16 {
		t.Fatalf("want iters=8 ops_per_iter=16 (64 elements / k=8, 2k ops per iter), got iters=%d ops_per_iter=%d",
			c.Iters, c.OpsPerIter)
	}
}

// TestRemeasureMatchesBaselineKeys pins the live-gate contract: every
// baseline cell key must come back from a re-measurement, so Compare
// never silently skips cells. The batch input holds two widths in one
// document; each must be rebuilt from the cells' batch_k.
func TestRemeasureMatchesBaselineKeys(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec Spec
		want int
	}{
		{"pairs", Spec{
			Variants: []string{"fast WF", "ring WF"}, Workloads: []string{"pairs"},
			Threads: []int{1, 2}, Procs: []int{1}, Iters: 300, Repeats: 1,
		}, 4},
		{"batchpairs k=1,8", Spec{
			Variants: []string{"fast WF"}, Workloads: []string{"batchpairs"},
			Threads: []int{1, 2}, Procs: []int{1}, Iters: 320, Repeats: 1,
			Batch: []int{1, 8},
		}, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base, err := Run(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			cand, err := Remeasure(base, 0, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Compare(base, cand, GateOptions{Tolerance: 0.99})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Compared != tc.want || len(rep.MissingInCandidate) != 0 || len(rep.MissingInBaseline) != 0 {
				t.Fatalf("re-measured keys differ from the baseline's: compared=%d missing in candidate=%v missing in baseline=%v",
					rep.Compared, rep.MissingInCandidate, rep.MissingInBaseline)
			}
			// The same budget must land on the same per-cell iterations.
			iters := map[CellKey]int{}
			for _, c := range base[0].Cells {
				iters[CellKey{c.Series, c.Workload, c.Threads, base[0].GOMAXPROCS}] = c.Iters
			}
			for _, c := range cand[0].Cells {
				if k := (CellKey{c.Series, c.Workload, c.Threads, cand[0].GOMAXPROCS}); iters[k] != c.Iters {
					t.Errorf("cell %s: re-measured at %d iters, baseline ran %d", k, c.Iters, iters[k])
				}
			}
		})
	}
}

// TestCommittedSnapshotsLoad keeps every committed sweep snapshot in the
// one schema: each results/BENCH_*.json except the three non-sweep
// experiments must load through LoadFile.
func TestCommittedSnapshotsLoad(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "results", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	notSweeps := map[string]bool{
		"BENCH_blocking.json": true, "BENCH_polylog.json": true, "BENCH_qsvc.json": true,
	}
	loaded := 0
	for _, p := range paths {
		if notSweeps[filepath.Base(p)] {
			continue
		}
		if _, err := LoadFile(p); err != nil {
			t.Error(err)
		}
		loaded++
	}
	if loaded < 18 {
		t.Fatalf("loaded %d sweep snapshots, want the 18 committed ones", loaded)
	}
}

func TestRunRejectsUnknownInputs(t *testing.T) {
	base := Spec{
		Variants: []string{"fast WF"}, Workloads: []string{"pairs"},
		Threads: []int{1}, Procs: []int{1}, Iters: 10, Repeats: 1,
	}
	bad := base
	bad.Variants = []string{"no such queue"}
	if _, err := Run(bad); err == nil || !strings.Contains(err.Error(), "no such queue") || !strings.Contains(err.Error(), `"fast WF"`) {
		t.Errorf("unknown variant not rejected by name with the registry listed: %v", err)
	}
	bad = base
	bad.Profile = "nope"
	if _, err := Run(bad); err == nil || !strings.Contains(err.Error(), `"preempt"`) {
		t.Errorf("unknown profile error does not list the profiles: %v", err)
	}
	bad = base
	bad.Workloads = []string{"nope"}
	if _, err := Run(bad); err == nil {
		t.Error("unknown workload not rejected")
	}
	bad = base
	bad.Procs = []int{0}
	if _, err := Run(bad); err == nil {
		t.Error("zero GOMAXPROCS not rejected")
	}
}

func TestWorkloadNamesRoundTrip(t *testing.T) {
	for _, name := range []string{"pairs", "fifty", "batchpairs", "batchenq"} {
		w, err := ParseWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := WorkloadShort(w); got != name {
			t.Errorf("WorkloadShort(ParseWorkload(%q)) = %q", name, got)
		}
	}
}
