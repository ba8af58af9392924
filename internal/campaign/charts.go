package campaign

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"wfq/internal/report"
)

// ChartPrefix names generated chart files.
const ChartPrefix = "CAMPAIGN_"

// Charts renders the SVG scaling charts for a campaign's documents and
// returns them keyed by filename. Per workload it emits:
//
//   - CAMPAIGN_<wl>_g<P>_ops.svg     — median ops/sec vs threads, one
//     chart per GOMAXPROCS value, one line per variant;
//   - CAMPAIGN_<wl>_scaling.svg      — the many-core money chart: median
//     ops/sec at threads == GOMAXPROCS, vs GOMAXPROCS;
//   - CAMPAIGN_<wl>_allocs.svg       — allocs/op vs threads at the widest
//     GOMAXPROCS;
//   - CAMPAIGN_<wl>_fasthit.svg      — fast-path hit ratio vs threads at
//     the widest GOMAXPROCS (metered variants only).
//
// All values plotted are the noise-robust medians, matching the gate.
func Charts(docs []*Doc) map[string]string {
	out := map[string]string{}
	byWorkload := map[string][]*Doc{}
	var wls []string
	for _, d := range docs {
		if len(byWorkload[d.Workload]) == 0 {
			wls = append(wls, d.Workload)
		}
		byWorkload[d.Workload] = append(byWorkload[d.Workload], d)
	}
	sort.Strings(wls)
	for _, wl := range wls {
		group := append([]*Doc(nil), byWorkload[wl]...)
		sort.Slice(group, func(i, j int) bool { return group[i].GOMAXPROCS < group[j].GOMAXPROCS })

		// Per-GOMAXPROCS ops-vs-threads panels.
		for _, d := range group {
			var series []report.SVGSeries
			for _, name := range seriesOrder(d.Cells) {
				s := report.SVGSeries{Name: name}
				for _, c := range d.Cells {
					if c.Series == name {
						s.X = append(s.X, float64(c.Threads))
						s.Y = append(s.Y, c.OpsPerSecMedian)
					}
				}
				series = append(series, s)
			}
			name := fmt.Sprintf("%s%s_g%d_ops.svg", ChartPrefix, wl, d.GOMAXPROCS)
			out[name] = report.LineChartSVG(report.SVGOptions{
				Title:  fmt.Sprintf("%s: median ops/sec vs threads (GOMAXPROCS=%d, ncpu=%d)", wl, d.GOMAXPROCS, d.Env.NumCPU),
				XLabel: "threads", YLabel: "ops/sec (median)", Log2X: true,
			}, series...)
		}

		// Scaling curve: threads == GOMAXPROCS diagonal across documents.
		var diag []report.SVGSeries
		for _, name := range seriesOrder(group[0].Cells) {
			s := report.SVGSeries{Name: name}
			for _, d := range group {
				for _, c := range d.Cells {
					if c.Series == name && c.Threads == d.GOMAXPROCS {
						s.X = append(s.X, float64(d.GOMAXPROCS))
						s.Y = append(s.Y, c.OpsPerSecMedian)
					}
				}
			}
			if len(s.X) > 0 {
				diag = append(diag, s)
			}
		}
		if len(diag) > 0 {
			out[fmt.Sprintf("%s%s_scaling.svg", ChartPrefix, wl)] = report.LineChartSVG(report.SVGOptions{
				Title:  fmt.Sprintf("%s: scaling curve, threads = GOMAXPROCS (ncpu=%d)", wl, group[0].Env.NumCPU),
				XLabel: "threads = GOMAXPROCS", YLabel: "ops/sec (median)", Log2X: true,
			}, diag...)
		}

		// Allocation and fast-hit panels at the widest scheduler width.
		widest := group[len(group)-1]
		var allocs, fasthit []report.SVGSeries
		for _, name := range seriesOrder(widest.Cells) {
			a := report.SVGSeries{Name: name}
			h := report.SVGSeries{Name: name}
			for _, c := range widest.Cells {
				if c.Series != name {
					continue
				}
				a.X = append(a.X, float64(c.Threads))
				a.Y = append(a.Y, c.AllocsPerOp)
				if r := c.FastHitRatio(); r >= 0 {
					h.X = append(h.X, float64(c.Threads))
					h.Y = append(h.Y, r)
				}
			}
			allocs = append(allocs, a)
			if len(h.X) > 0 {
				fasthit = append(fasthit, h)
			}
		}
		out[fmt.Sprintf("%s%s_allocs.svg", ChartPrefix, wl)] = report.LineChartSVG(report.SVGOptions{
			Title:  fmt.Sprintf("%s: allocs/op vs threads (GOMAXPROCS=%d)", wl, widest.GOMAXPROCS),
			XLabel: "threads", YLabel: "allocs/op", Log2X: true,
			YFormat: func(v float64) string { return fmt.Sprintf("%.3g", v) },
		}, allocs...)
		if len(fasthit) > 0 {
			out[fmt.Sprintf("%s%s_fasthit.svg", ChartPrefix, wl)] = report.LineChartSVG(report.SVGOptions{
				Title:  fmt.Sprintf("%s: fast-path hit ratio vs threads (GOMAXPROCS=%d)", wl, widest.GOMAXPROCS),
				XLabel: "threads", YLabel: "fast hits / ops", Log2X: true,
				YFormat: func(v float64) string { return fmt.Sprintf("%.2f", v) },
			}, fasthit...)
		}
	}
	return out
}

// Table renders one document as the readable result of a run: median
// ops/sec, one row per thread count, one column per series.
func Table(d *Doc) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("%s: GOMAXPROCS=%d, %s profile, %d iters/thread, median of %d",
			d.Workload, d.GOMAXPROCS, d.Profile, d.Iters, d.Repeats),
		"threads", "ops/s", seriesOrder(d.Cells))
	for _, c := range d.Cells {
		t.Set(strconv.Itoa(c.Threads), c.Series, report.Cell{Value: c.OpsPerSecMedian})
	}
	return t
}

// WriteCharts renders and writes the charts into dir, returning the
// written paths sorted by name.
func WriteCharts(dir string, docs []*Doc) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	charts := Charts(docs)
	names := make([]string, 0, len(charts))
	for name := range charts {
		names = append(names, name)
	}
	sort.Strings(names)
	var paths []string
	for _, name := range names {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(charts[name]), 0o644); err != nil {
			return nil, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}

// seriesOrder returns the distinct series names of cells in first-
// appearance order (the sweep's variant order).
func seriesOrder(cells []Cell) []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range cells {
		if !seen[c.Series] {
			seen[c.Series] = true
			out = append(out, c.Series)
		}
	}
	return out
}
