package main

import (
	"runtime/metrics"
	"slices"
	"sync/atomic"
	"syscall"
	"time"
)

// Run phases. Load goroutines read the phase to decide whether an
// operation is measured and when to stop.
const (
	phaseWarmup int32 = iota
	phaseMeasure
	phaseStop
)

// maxLoad is the number of load goroutines a workload may run: one per
// CPU of the 2-CPU host the benchmark is calibrated on.
const maxLoad = 2

// counter is one load goroutine's published operation count, alone on
// its cache lines so that publishing it never contends.
type counter struct {
	_ [64]byte
	n atomic.Int64
	_ [56]byte
}

// control is what the measuring goroutine shares with the load
// goroutines: the phase, and each goroutine's completed-operation count.
type control struct {
	phase atomic.Int32
	ops   [maxLoad]counter
}

func (c *control) measuring() bool { return c.phase.Load() == phaseMeasure }

func (c *control) total() int64 {
	var n int64
	for i := range c.ops {
		n += c.ops[i].n.Load()
	}
	return n
}

// Runtime metrics the meter reads. mallocs are the sum of the first two
// (the runtime counts tiny allocations separately).
var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/tiny/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
	"/sched/latencies:seconds",
}

const heapName = "/memory/classes/heap/objects:bytes"

// point is the process's cumulative counters at one instant.
type point struct {
	t       time.Time
	ops     int64
	cpu     time.Duration
	mallocs uint64
	gcs     uint64
}

// window is the difference between two points one window apart, and
// the largest heap sample taken within it.
type window struct {
	secs     float64
	ops      int64
	cpu      time.Duration
	mallocs  uint64
	heapPeak uint64 // bytes
}

// measurement is what the meter observed over the measured interval.
type measurement struct {
	windows []window
	secs    float64
	gcs     uint64
	// Tails of the runtime's own histograms over the interval. They are
	// the runtime's buckets, not exact samples.
	gcPauseP99, schedLatP99 float64 // seconds
}

type meter struct {
	rt   []metrics.Sample
	heap []metrics.Sample
}

func newMeter() *meter {
	m := &meter{rt: make([]metrics.Sample, len(runtimeNames)), heap: []metrics.Sample{{Name: heapName}}}
	for i, n := range runtimeNames {
		m.rt[i].Name = n
	}
	return m
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (m *meter) read(ops int64) point {
	metrics.Read(m.rt)
	return point{
		t:       time.Now(),
		ops:     ops,
		cpu:     cpuTime(),
		mallocs: m.rt[0].Value.Uint64() + m.rt[1].Value.Uint64(),
		gcs:     m.rt[2].Value.Uint64(),
	}
}

// mallocs reads the process's cumulative allocation count alone.
func (m *meter) mallocs() uint64 {
	metrics.Read(m.rt[:2])
	return m.rt[0].Value.Uint64() + m.rt[1].Value.Uint64()
}

func (m *meter) heapBytes() uint64 {
	metrics.Read(m.heap)
	return m.heap[0].Value.Uint64()
}

// histograms copies the two runtime histograms the meter tracks.
func (m *meter) histograms() (gcPause, sched metrics.Float64Histogram) {
	metrics.Read(m.rt[3:])
	a, b := m.rt[3].Value.Float64Histogram(), m.rt[4].Value.Float64Histogram()
	return metrics.Float64Histogram{Counts: slices.Clone(a.Counts), Buckets: a.Buckets},
		metrics.Float64Histogram{Counts: slices.Clone(b.Counts), Buckets: b.Buckets}
}

// histP99 is the p99 of the observations added between two snapshots
// of one runtime histogram, reported as the upper bound of its bucket
// (the lower bound for the open-ended last bucket); 0 with no
// observations.
func histP99(before, after metrics.Float64Histogram) float64 {
	var total uint64
	d := make([]uint64, len(after.Counts))
	for i := range d {
		d[i] = after.Counts[i] - before.Counts[i]
		total += d[i]
	}
	if total == 0 {
		return 0
	}
	rank := (total*99 + 99) / 100
	var cum uint64
	for i, c := range d {
		cum += c
		if cum >= rank {
			if hi := after.Buckets[i+1]; hi < 1e300 {
				return hi
			}
			return after.Buckets[i]
		}
	}
	return 0
}

// heapTick is how often the meter samples the heap for heap_peak_mib.
const heapTick = 10 * time.Millisecond

// run drives the phases: warmup, then nwin measured windows, then stop.
// It runs on the caller's goroutine, which is not a load goroutine.
func (m *meter) run(c *control, warmup, win time.Duration, nwin int) measurement {
	time.Sleep(warmup)
	var out measurement
	gc0, sc0 := m.histograms()
	c.phase.Store(phaseMeasure)
	start := m.read(c.total())
	prev := start
	for i := 1; i <= nwin; i++ {
		end := start.t.Add(time.Duration(i) * win)
		var peak uint64
		for {
			peak = max(peak, m.heapBytes())
			left := time.Until(end)
			if left <= 0 {
				break
			}
			time.Sleep(min(left, heapTick))
		}
		cur := m.read(c.total())
		out.windows = append(out.windows, window{
			secs:     cur.t.Sub(prev.t).Seconds(),
			ops:      cur.ops - prev.ops,
			cpu:      cur.cpu - prev.cpu,
			mallocs:  cur.mallocs - prev.mallocs,
			heapPeak: peak,
		})
		prev = cur
	}
	c.phase.Store(phaseStop)
	gc1, sc1 := m.histograms()
	out.secs = prev.t.Sub(start.t).Seconds()
	out.gcs = prev.gcs - start.gcs
	out.gcPauseP99 = histP99(gc0, gc1)
	out.schedLatP99 = histP99(sc0, sc1)
	return out
}

// median is the lower median of vs, 0 when vs is empty. It sorts vs.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	slices.Sort(vs)
	return vs[(len(vs)-1)/2]
}

// opsPerSec is the median of the windows' throughput. A window that
// completed nothing counts as 0 ops/s, so a stall of whole windows
// lowers it.
func (ms measurement) opsPerSec() float64 {
	vs := make([]float64, len(ms.windows))
	for i, w := range ms.windows {
		vs[i] = float64(w.ops) / w.secs
	}
	return median(vs)
}

// idle counts the windows that completed no operation.
func (ms measurement) idle() int {
	n := 0
	for _, w := range ms.windows {
		if w.ops == 0 {
			n++
		}
	}
	return n
}

// perOp is the median over the windows of f(w) ÷ the window's
// operations. A window that completed nothing has no such ratio and is
// left out; opsPerSec and idle report it.
func (ms measurement) perOp(f func(w window) float64) float64 {
	var vs []float64
	for _, w := range ms.windows {
		if w.ops > 0 {
			vs = append(vs, f(w)/float64(w.ops))
		}
	}
	return median(vs)
}

func (ms measurement) cpuUsPerOp() float64 {
	return ms.perOp(func(w window) float64 { return float64(w.cpu) / 1e3 })
}

func (ms measurement) allocsPerOp() float64 {
	return ms.perOp(func(w window) float64 { return float64(w.mallocs) })
}

// heapPeakMiB is the lower quartile (nearest rank) of the windows'
// largest heap samples. A window peaks higher when the collector falls
// behind the allocation rate, which it does whenever the host takes its
// CPU away for a while — on the calibration host, in up to half of the
// windows of a run — so neither a high quantile of the windows, nor
// their median, nor the run's maximum repeats from run to run.
func (ms measurement) heapPeakMiB() float64 {
	peaks := make([]int64, len(ms.windows))
	for i, w := range ms.windows {
		peaks[i] = int64(w.heapPeak)
	}
	slices.Sort(peaks)
	return float64(nearestRank(peaks, 250)) / (1 << 20)
}
