package harness

import (
	"testing"
	"time"
)

func TestMeasureLatencyBasics(t *testing.T) {
	for _, alg := range []Algorithm{LF(), OptWF12()} {
		r, err := MeasureLatency(alg, LatencyConfig{Threads: 3, Iters: 500})
		if err != nil {
			t.Fatal(err)
		}
		if r.Algorithm != alg.Name {
			t.Fatalf("name %q", r.Algorithm)
		}
		if r.Samples != 3*500*2 {
			t.Fatalf("samples %d", r.Samples)
		}
		if r.P50 <= 0 || r.P99 < r.P50 || r.P999 < r.P99 || r.Max < r.P999 {
			t.Fatalf("non-monotone percentiles: %+v", r)
		}
	}
}

func TestMeasureLatencySampling(t *testing.T) {
	r, err := MeasureLatency(LF(), LatencyConfig{Threads: 2, Iters: 1000, SampleEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	if r.Samples != 2*100*2 {
		t.Fatalf("samples %d with 1-in-10 sampling", r.Samples)
	}
}

func TestMeasureLatencyUnderProfile(t *testing.T) {
	prof, err := ProfileByName("preempt")
	if err != nil {
		t.Fatal(err)
	}
	r, err := MeasureLatency(BaseWF(), LatencyConfig{Threads: 2, Iters: 300, Profile: prof})
	if err != nil {
		t.Fatal(err)
	}
	if r.Max <= 0 || r.Max > time.Minute {
		t.Fatalf("implausible max %v", r.Max)
	}
}

func TestMeasureLatencyValidation(t *testing.T) {
	if _, err := MeasureLatency(LF(), LatencyConfig{Threads: 0, Iters: 1}); err == nil {
		t.Fatal("zero threads accepted")
	}
	if _, err := MeasureLatency(LF(), LatencyConfig{Threads: 1, Iters: 0}); err == nil {
		t.Fatal("zero iters accepted")
	}
}

func TestLatencyResultString(t *testing.T) {
	r := LatencyResult{Algorithm: "LF", Samples: 10, P50: time.Microsecond}
	if s := r.String(); s == "" {
		t.Fatal("empty string")
	}
}

func TestLFHPAlgorithm(t *testing.T) {
	a, err := ByName("LF+HP")
	if err != nil {
		t.Fatal(err)
	}
	q := a.New(2)
	q.Enqueue(0, 3)
	if v, ok := q.Dequeue(1); !ok || v != 3 {
		t.Fatalf("(%d,%v)", v, ok)
	}
}
