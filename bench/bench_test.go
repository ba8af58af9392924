package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"wfq/internal/qsvc"
)

func TestNearestRank(t *testing.T) {
	seq := func(lo, hi int64) []int64 {
		var s []int64
		for v := lo; v <= hi; v++ {
			s = append(s, v)
		}
		rand.New(rand.NewSource(1)).Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		return s
	}
	cases := []struct {
		name          string
		parts         [][]int64
		p50, p99, max int64
	}{
		{"one sample", [][]int64{{7}}, 7, 7, 7},
		{"1..100", [][]int64{seq(1, 100)}, 50, 99, 100},
		{"1..1000 in two recorders", [][]int64{seq(1, 400), seq(401, 1000)}, 500, 990, 1000},
		{"constant", [][]int64{{5, 5, 5, 5}}, 5, 5, 5},
		{"one outlier in 100", [][]int64{append(seq(1, 99), 1_000_000)}, 50, 99, 1_000_000},
		{"two outliers in 100", [][]int64{append(seq(1, 98), 1_000_000, 2_000_000)}, 50, 1_000_000, 2_000_000},
	}
	for _, c := range cases {
		got, err := summarize(c.parts...)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, p := range c.parts {
			n += len(p)
		}
		want := tail{N: n, P50: c.p50, P99: c.p99, Max: c.max}
		if got != want {
			t.Errorf("%s: got %+v, want %+v", c.name, got, want)
		}
		if err := got.check(c.name, int64(n)); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		if err := got.check(c.name, int64(n+1)); err == nil {
			t.Errorf("%s: check accepted a count that differs from the completions", c.name)
		}
	}
}

// Latencies just above a power of two: a histogram that reports the
// upper bound of a power-of-two bucket puts p99 above the largest
// sample (the committed 10k-user row has p99 268 ms > max 172 ms).
// Nearest rank over the samples cannot.
func TestTailsNeverExceedMax(t *testing.T) {
	var samples []int64
	var h qsvc.Hist
	for v := int64(1_100_000); v <= 1_172_000; v += 100 { // 1.10–1.172 ms
		samples = append(samples, v)
		h.Observe(v)
	}
	if s := h.Snapshot(); s.P99 <= s.Max {
		t.Fatalf("power-of-two histogram: p99 %v <= max %v; the case no longer shows the defect", s.P99, s.Max)
	}
	got, err := summarize(samples)
	if err != nil {
		t.Fatal(err)
	}
	if got.P99 > got.Max || got.P50 > got.P99 {
		t.Fatalf("exact tails out of order: %+v", got)
	}
	if want := samples[(len(samples)*990+999)/1000-1]; got.P99 != want {
		t.Fatalf("p99 = %d, want the sample of rank ⌈0.99n⌉, %d", got.P99, want)
	}
}

// A sink that stalls once for 50 ms: every request that fell due during
// the stall must carry it in its latency, not only the one request that
// was in flight.
func TestOpenLoopCountsStall(t *testing.T) {
	const (
		rate  = 2000.0
		stall = 50 * time.Millisecond
		total = 400
	)
	var lat []time.Duration
	openLoop(rand.New(rand.NewSource(3)), rate, func(due time.Time) bool {
		if len(lat) == 100 {
			time.Sleep(stall)
		}
		lat = append(lat, time.Since(due))
		return len(lat) < total
	})
	// About rate×stall = 100 requests fall due during the stall; those
	// due in its first half waited at least half of it.
	long := 0
	for _, d := range lat {
		if d >= stall/2 {
			long++
		}
	}
	if long < 20 {
		t.Fatalf("%d requests waited >= %v; the stall was hidden by the generator", long, stall/2)
	}
}

// Windows in which the system completed nothing count as 0 ops/s, so a
// workload that stalls for most of a run cannot report the rate of its
// working windows; the per-op ratios leave those windows out, since
// they have no operations to divide by.
func TestMeasurementCountsIdleWindows(t *testing.T) {
	busy := window{secs: 1, ops: 1000, mallocs: 2000, cpu: 3 * time.Millisecond}
	idle := window{secs: 1, mallocs: 50, cpu: time.Millisecond}
	ms := measurement{windows: []window{busy, idle, busy, idle, idle}}
	if got := ms.opsPerSec(); got != 0 {
		t.Errorf("ops_per_s with 3 idle windows of 5 = %v, want 0", got)
	}
	if got := ms.idle(); got != 3 {
		t.Errorf("idle windows = %d, want 3", got)
	}
	if got := ms.allocsPerOp(); got != 2 {
		t.Errorf("allocs_per_op = %v, want 2 (the busy windows')", got)
	}
	if got := ms.cpuUsPerOp(); got != 3 {
		t.Errorf("cpu_us_per_op = %v, want 3 (the busy windows')", got)
	}
	ms.windows = append(ms.windows, busy, busy)
	if got := ms.opsPerSec(); got != 1000 {
		t.Errorf("ops_per_s with 3 idle windows of 7 = %v, want 1000", got)
	}
}

func TestLedger(t *testing.T) {
	const key = 0x5eed
	run := func(deliver func(p *stream, s *sink, vs []uint64)) (int64, []string) {
		p := newStream(1, key)
		k := newSink(key)
		var vs []uint64
		for i := 0; i < 10; i++ {
			v := p.next()
			p.admitted(v)
			vs = append(vs, v)
		}
		deliver(p, k, vs)
		return verdict([]*stream{p}, []*sink{k})
	}
	if bad, notes := run(func(_ *stream, k *sink, vs []uint64) {
		for _, v := range vs {
			k.take(v)
		}
	}); bad != 0 {
		t.Fatalf("in-order delivery: %d violations %v", bad, notes)
	}
	if bad, notes := run(func(_ *stream, k *sink, vs []uint64) {
		for i, v := range vs {
			if i != 4 {
				k.take(v)
			}
		}
	}); bad != 1 || !strings.Contains(strings.Join(notes, ";"), "missing seq 4") {
		t.Fatalf("lost seq 4: %d violations %v", bad, notes)
	}
	if bad, _ := run(func(_ *stream, k *sink, vs []uint64) {
		for _, v := range vs {
			k.take(v)
		}
		k.take(vs[3])
	}); bad < 1 {
		t.Fatal("duplicate not detected")
	}
	if bad, _ := run(func(_ *stream, k *sink, vs []uint64) {
		vs[2], vs[3] = vs[3], vs[2]
		for _, v := range vs {
			k.take(v)
		}
	}); bad < 1 {
		t.Fatal("reordering not detected")
	}
	if bad, _ := run(func(p *stream, k *sink, vs []uint64) {
		for _, v := range vs {
			b := p.payload(nil, v)
			if v == vs[5] {
				b[15] ^= 1
			}
			k.takePayload(b)
		}
	}); bad < 1 {
		t.Fatal("corrupted payload not detected")
	}
}

type spec struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []map[string]any `json:"workloads"`
	EndToEnd   []map[string]any `json:"end_to_end"`
	PerLayer   []map[string]any `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(b, &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCHMARK.json keys %v, want %v", got, want)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func fieldSet(m map[string]any) string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return strings.Join(ks, ",")
}

func TestBenchmarkSpec(t *testing.T) {
	s := loadSpec(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(v any) string {
		n, _ := v.(string)
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
		return n
	}
	// metric checks the fields every metric has and returns its name.
	metric := func(m map[string]any, fields string) string {
		if fieldSet(m) != fields {
			t.Errorf("metric %v has fields %s, want %s", m["name"], fieldSet(m), fields)
		}
		n := name(m["name"])
		if u, _ := m["unit"].(string); !unitRE.MatchString(u) {
			t.Errorf("%s: unit %q", n, u)
		}
		if b := m["better"]; b != "lower" && b != "higher" {
			t.Errorf("%s: better %v", n, b)
		}
		return n
	}
	if n := len(s.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	var names []string
	for _, w := range s.Workloads {
		if fieldSet(w) != "name,why" {
			t.Errorf("workload fields %s", fieldSet(w))
		}
		names = append(names, name(w["name"]))
		if why, _ := w["why"].(string); why == "" || len(why) > 200 || strings.Contains(why, "\n") {
			t.Errorf("workload %v: why must be one line of at most 200 characters", w["name"])
		}
	}
	var code []string
	for _, w := range workloads {
		code = append(code, w.name)
	}
	if !reflect.DeepEqual(names, code) {
		t.Errorf("BENCHMARK.json workloads %v, the benchmark runs %v", names, code)
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	// A metric that does not repeat within a tenth is reported per layer,
	// not given a wider bound. setup_s is the exception: it has the largest
	// bound, at most 0.25.
	largest, setup := 0.0, 0.0
	for _, m := range s.EndToEnd {
		n := metric(m, "better,bound,name,unit")
		b, _ := m["bound"].(float64)
		largest = max(largest, b)
		if n == "setup_s" {
			setup = b
			if m["unit"] != "s" || m["better"] != "lower" || b <= 0 || b > 0.25 {
				t.Errorf("setup_s: unit %v, better %v, bound %v; want s, lower, (0, 0.25]", m["unit"], m["better"], b)
			}
		} else if b <= 0 || b > 0.10 {
			t.Errorf("%s: bound %v, want (0, 0.10]", n, b)
		}
	}
	if setup == 0 || setup < largest {
		t.Errorf("setup_s must be present and have the largest bound")
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, m := range s.PerLayer {
		metric(m, "better,name,unit")
	}
	sameList(t, "end_to_end", s.EndToEnd, endToEnd)
	sameList(t, "per_layer", s.PerLayer, layerMetrics)
	// Each per-layer row names what it should move: an end-to-end metric,
	// or the whole path's throughput, CPU or latency, which are per-layer
	// only because they are too noisy for a bound; and a workload. Those
	// whole-path rows measure no single layer and name nothing.
	wholePath := func(n string) bool { return strings.HasPrefix(n, "e2e.") }
	for _, lm := range layerMetrics {
		if wholePath(lm.name) {
			if lm.moves != "" || lm.workload != "" {
				t.Errorf("whole-path %s names %s @ %s to move", lm.name, lm.moves, lm.workload)
			}
			continue
		}
		target := lm.moves
		if !slices.ContainsFunc(endToEnd, func(m metricSpec) bool { return m.name == target }) &&
			!(wholePath(target) && slices.ContainsFunc(layerMetrics, func(m metricSpec) bool { return m.name == target })) {
			t.Errorf("per-layer %s should move %s, which is not an end-to-end metric", lm.name, target)
		}
		if !slices.Contains(names, lm.workload) {
			t.Errorf("per-layer %s should move a metric of %s, which is not a workload", lm.name, lm.workload)
		}
	}
}

// sameList checks that BENCHMARK.json lists the metrics the benchmark
// reports, in the same order and with the same units.
func sameList(t *testing.T, key string, spec []map[string]any, code []metricSpec) {
	t.Helper()
	var got, want []string
	for _, m := range spec {
		got = append(got, fmt.Sprintf("%v [%v]", m["name"], m["unit"]))
	}
	for _, m := range code {
		want = append(want, fmt.Sprintf("%s [%s]", m.name, m.unit))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json %s:\n%v\nthe benchmark reports:\n%v", key, got, want)
	}
}

// quick is a run of about half a second.
func quick(workload string, trace bool, dir string) config {
	return config{
		workload: workload, seed: 7,
		windows: 5, window: 100 * time.Millisecond, warmup: 100 * time.Millisecond,
		rung:  100 * time.Millisecond,
		trace: trace, traceOut: filepath.Join(dir, workload+".json"),
	}
}

// Each workload, untraced and traced, prints every metric of
// BENCHMARK.json by name with its unit, and checks its outputs.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	s := loadSpec(t)
	dir := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := quick(w.name, trace, dir)
			var out, errOut bytes.Buffer
			if code := execute(&cfg, &out, &errOut); code != 0 {
				t.Fatalf("%s trace=%v: exit %d\n%s\n%s", w.name, trace, code, out.String(), errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result: %v", w.name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s", w.name, trace, res.Correct, res.Failed, res.Attempted, out.String())
			}
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				n := m["name"].(string)
				got, ok := res.Metrics[n]
				if !ok || got.Unit != m["unit"] {
					t.Errorf("%s trace=%v: metric %s printed as %+v, want unit %v", w.name, trace, n, got, m["unit"])
				}
			}
			if trace {
				b, err := os.ReadFile(cfg.traceOut)
				if err != nil {
					t.Fatal(err)
				}
				var tf struct {
					TraceEvents []chromeEvent `json:"traceEvents"`
				}
				if err := json.Unmarshal(b, &tf); err != nil || len(tf.TraceEvents) == 0 {
					t.Fatalf("%s: trace file unreadable or empty: %v", w.name, err)
				}
			}
		}
	}
}

func TestUsage(t *testing.T) {
	for _, args := range [][]string{{}, {"-workload", "nope"}, {"-workload", "lib-pairs", "-trace", "2"}} {
		var out, errOut bytes.Buffer
		if code := cli(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
