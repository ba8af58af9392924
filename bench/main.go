// Command bench is the repository's benchmark: one process that builds
// a queue (and, for the serving workloads, an in-process server on
// loopback TCP), drives it with generated inputs from at most two load
// goroutines, checks every delivered element against a ledger, and
// prints its metrics.
//
//	go run . -workload serve-pairs -seed 1            # end-to-end metrics
//	go run . -workload serve-pairs -seed 1 -trace 1   # per-layer metrics
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Lines before it, each starting with '#', describe the run: the
// environment, every metric with its sample count, and any ledger
// violation by sequence id. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// config is one run's shape. The command line sets the workload, seed,
// window count and tracing; the test shrinks the durations.
type config struct {
	workload string
	seed     int64
	windows  int           // measured windows
	window   time.Duration // length of one window
	warmup   time.Duration
	rung     time.Duration // length of one ladder rung (traced runs)
	trace    bool
	traceOut string
}

func defaultConfig() config {
	return config{
		windows: 20,
		window:  time.Second,
		warmup:  3 * time.Second,
		rung:    1500 * time.Millisecond,
	}
}

// runEnv is what a workload's set-up and load goroutines share.
type runEnv struct {
	cfg *config
	key uint64     // element-value key, drawn from the seed
	rng *rand.Rand // arrival times, drawn from the seed
	tr  *tracer    // nil when untraced
}

// instance is one set-up workload.
type instance interface {
	// start launches the load goroutines; they run until the control's
	// phase is phaseStop.
	start(c *control) error
	// finish joins the load goroutines, drains the queue, and checks
	// the ledger.
	finish() (outcome, error)
	// close releases the queue, server and connections.
	close()
}

// outcome is what a workload reports after the run.
type outcome struct {
	attempted  int64
	failed     int64 // errors, rejections and expiries
	violations int64 // ledger violations: lost, duplicated, reordered or corrupted elements
	notes      []string
	lat        tail   // the workload's latency samples
	latWhat    string // what one sample times
	latDone    int64  // measured operations the samples cover
	info       []string
}

type workload struct {
	name  string
	setup func(*runEnv) (instance, error)
}

var workloads = []workload{
	{"lib-pairs", setupLibPairs},
	{"lib-backlog", setupLibBacklog},
	{"serve-pairs", setupServePairs},
	{"serve-wait-open", setupServeWaitOpen},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

func cli(args []string, stdout, stderr io.Writer) int {
	cfg := defaultConfig()
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+workloadNames())
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	fs.IntVar(&cfg.windows, "seconds", cfg.windows, "measured seconds, as one-second windows")
	trace := fs.Int("trace", 0, "1: run traced, then the layer ladder, and print the per-layer metrics")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "trace file (default .bench_build/trace/<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := lookup(cfg.workload); !ok || fs.NArg() > 0 || cfg.windows < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintf(stderr, "usage: bench -workload {%s} [-seed N] [-seconds N] [-trace 0|1]\n", workloadNames())
		return 2
	}
	cfg.trace = *trace == 1
	if cfg.trace && cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-%d.json", cfg.workload, cfg.seed))
	}
	return execute(&cfg, stdout, stderr)
}

// execute runs the benchmark and prints the result line. It exits 1
// when the run fails or a delivered element violates the ledger.
func execute(cfg *config, stdout, stderr io.Writer) int {
	res, err := run(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// stamp describes the environment every result was measured in.
func stamp(cfg *config) map[string]any {
	sha, modified := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				sha = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
	}
	if modified {
		sha += "+modified"
	}
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"go":         runtime.Version(),
		"goos_arch":  runtime.GOOS + "/" + runtime.GOARCH,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"git_sha":    sha,
		"transport":  "serve-* workloads: in-process server, loopback TCP 127.0.0.1",
		"load":       fmt.Sprintf("%d load goroutines, at most %d connections", maxLoad, maxLoad),
		"windows":    fmt.Sprintf("%d x %v after %v warmup", cfg.windows, cfg.window, cfg.warmup),
	}
}

// run times the workload's set-up, measures a fresh set-up, checks its
// outputs, and returns the result line.
func run(cfg *config, out io.Writer) (*result, error) {
	w, _ := lookup(cfg.workload)
	e := &runEnv{cfg: cfg, key: mix(uint64(cfg.seed)), rng: rand.New(rand.NewSource(cfg.seed))}
	if cfg.trace {
		e.tr = newTracer()
	}
	st := stamp(cfg)
	env, _ := json.Marshal(st) // a map of strings and numbers always marshals
	fmt.Fprintf(out, "# env %s\n", env)

	setups, inst, err := setUp(w, e)
	if err != nil {
		return nil, err
	}
	c := &control{}
	if err := inst.start(c); err != nil {
		inst.close()
		return nil, err
	}
	m := newMeter().run(c, cfg.warmup, cfg.window, cfg.windows)
	o, err := inst.finish()
	inst.close()
	if err != nil {
		return nil, err
	}
	if err := o.lat.check("latency", o.latDone); err != nil {
		o.violations++
		o.notes = append(o.notes, err.Error())
	}
	fmt.Fprintf(out, "# %s seed %d: %d ops attempted, %d failed, %d ledger violations\n",
		w.name, cfg.seed, o.attempted, o.failed, o.violations)
	for _, n := range o.notes {
		fmt.Fprintf(out, "# violation: %s\n", n)
	}
	for _, s := range o.info {
		fmt.Fprintf(out, "# %s\n", s)
	}
	var rates, peaks []string
	for _, w := range m.windows {
		rates = append(rates, fmt.Sprintf("%.4g", float64(w.ops)/w.secs))
		peaks = append(peaks, fmt.Sprintf("%.4g", float64(w.heapPeak)/(1<<20)))
	}
	fmt.Fprintf(out, "# ops/s by window: %s (%d windows without an operation)\n", strings.Join(rates, " "), m.idle())
	fmt.Fprintf(out, "# heap peak MiB by window: %s\n", strings.Join(peaks, " "))

	// Every run prints every metric it measured; the result line carries
	// the end-to-end ones untraced and the per-layer ones traced.
	vals := map[string]float64{}
	put := func(name string, v float64, unit, how string) {
		vals[name] = v
		fmt.Fprintf(out, "# %-28s %14.6g %-7s %s\n", name, v, unit, how)
	}
	win := fmt.Sprintf("(median of %d windows of %v)", len(m.windows), cfg.window)
	put("setup_s", setups.seconds(), "s", fmt.Sprintf("(lowest of the CPUs' median set-up times; %v)", setups))
	put("allocs_per_op", m.allocsPerOp(), "allocs", win)
	put("heap_peak_mib", m.heapPeakMiB(), "MiB", fmt.Sprintf("(lower quartile of the windows' peaks, heap sampled every %v)", heapTick))
	put("e2e.ops_per_s", m.opsPerSec(), "1/s", win)
	put("e2e.cpu_us_per_op", m.cpuUsPerOp(), "us", win)
	lat := fmt.Sprintf("(%s; exact nearest rank, n=%d, max %.1f us)", o.latWhat, o.lat.N, usec(o.lat.Max))
	put("e2e.lat_p50_us", usec(o.lat.P50), "us", lat)
	put("e2e.lat_p99_us", usec(o.lat.P99), "us", lat)

	want := endToEnd
	if cfg.trace {
		put("runtime.gc_per_s", float64(m.gcs)/m.secs, "1/s", "(traced run)")
		put("runtime.gc_pause_us_p99", m.gcPauseP99*1e6, "us", "(traced run; upper bound of the runtime's histogram bucket)")
		put("runtime.sched_latency_us_p99", m.schedLatP99*1e6, "us", "(traced run; upper bound of the runtime's histogram bucket)")
		if err := traced(cfg, e, st, put, out); err != nil {
			return nil, err
		}
		want = layerMetrics
	}
	res := &result{
		Correct:   o.violations == 0,
		Attempted: o.attempted,
		Failed:    o.failed + o.violations,
		Metrics:   map[string]metric{},
	}
	for _, lm := range want {
		v, ok := vals[lm.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", lm.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", lm.name, v)
		}
		res.Metrics[lm.name] = metric{v, lm.unit}
	}
	return res, nil
}
