package main

import (
	"fmt"
	"slices"
)

// recorder keeps every latency sample of one goroutine, in nanoseconds,
// in a preallocated off-heap slice. It never buckets: the summary is
// computed from the samples themselves.
type recorder struct {
	m *mapped[int64]
	n int
}

// recorderCap bounds the samples one goroutine can keep in a run; a
// run that takes more fails its sample-count check. It is virtual
// memory; only the pages written become resident.
const recorderCap = 1 << 24

func newRecorder() (*recorder, error) {
	m, err := mapSlice[int64](recorderCap)
	if err != nil {
		return nil, err
	}
	return &recorder{m: m}, nil
}

func (r *recorder) add(ns int64) {
	if r.n < len(r.m.s) {
		r.m.s[r.n] = ns
		r.n++
	}
}

func (r *recorder) samples() []int64 { return r.m.s[:r.n] }

func (r *recorder) release() {
	if r != nil {
		r.m.release()
	}
}

// tail is an exact summary of a set of latency samples: nearest-rank
// quantiles over every sample, with the sample count.
type tail struct {
	N             int
	P50, P99, Max int64 // nanoseconds
}

// nearestRank returns the nearest-rank quantile of sorted for q given in
// thousandths: the smallest sample with at least ⌈q·n⌉ samples at or
// below it. Integer arithmetic keeps the rank exact (0.99·100 is 99, not
// 98.99999999999999).
func nearestRank(sorted []int64, permille int) int64 {
	n := len(sorted)
	r := (n*permille + 999) / 1000
	if r < 1 {
		r = 1
	}
	return sorted[r-1]
}

// summarize merges the samples of several recorders and summarizes
// them. It sorts in place: the recorders' sample order is not needed
// afterwards.
func summarize(parts ...[]int64) (tail, error) {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total == 0 {
		return tail{}, nil
	}
	all, err := mapSlice[int64](total)
	if err != nil {
		return tail{}, err
	}
	defer all.release()
	s := all.s[:0]
	for _, p := range parts {
		s = append(s, p...)
	}
	slices.Sort(s)
	return tail{N: total, P50: nearestRank(s, 500), P99: nearestRank(s, 990), Max: s[total-1]}, nil
}

// check is the self-check every run applies to each latency summary:
// the sample count equals the number of completed operations it covers,
// and the quantiles are ordered (p50 ≤ p99 ≤ max) — the property the
// power-of-two histogram in the queue service violates.
func (t tail) check(name string, completed int64) error {
	if int64(t.N) != completed {
		return fmt.Errorf("%s: %d latency samples for %d completed operations", name, t.N, completed)
	}
	if t.N > 0 && !(t.P50 <= t.P99 && t.P99 <= t.Max) {
		return fmt.Errorf("%s: quantiles out of order: p50=%d p99=%d max=%d ns", name, t.P50, t.P99, t.Max)
	}
	return nil
}

func usec(ns int64) float64 { return float64(ns) / 1e3 }
