package harness

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"wfq/internal/queues"
)

func TestAlgorithmsConstructAndWork(t *testing.T) {
	for _, alg := range AllAlgorithms() {
		t.Run(alg.Name, func(t *testing.T) {
			q := alg.New(4)
			q.Enqueue(0, 7)
			if v, ok := q.Dequeue(1); !ok || v != 7 {
				t.Fatalf("(%d,%v)", v, ok)
			}
			if _, ok := q.Dequeue(2); ok {
				t.Fatal("empty dequeue succeeded")
			}
		})
	}
}

// TestShardedAlgorithmsAreTicketed pins the contract drivers rely on:
// an Algorithm with Shards > 0 builds a queues.Ticketed whose Shards()
// agrees with the declared count, and single-queue algorithms never
// satisfy the interface.
func TestShardedAlgorithmsAreTicketed(t *testing.T) {
	for _, alg := range AllAlgorithms() {
		q := alg.New(2)
		tq, ok := q.(queues.Ticketed)
		if (alg.Shards > 0) != ok {
			t.Fatalf("%s: Shards=%d but Ticketed=%v", alg.Name, alg.Shards, ok)
		}
		if ok && tq.Shards() != alg.Shards {
			t.Fatalf("%s: queue reports %d shards, algorithm declares %d", alg.Name, tq.Shards(), alg.Shards)
		}
	}
	sh, err := ByName("sharded WF")
	if err != nil {
		t.Fatal(err)
	}
	q := sh.New(2).(queues.Ticketed)
	if ticket := q.EnqueueTicket(0, 5); ticket != 0 {
		t.Fatalf("first enqueue ticket %d", ticket)
	}
	if v, ok, ticket := q.DequeueTicket(1); !ok || v != 5 || ticket != 0 {
		t.Fatalf("(%d,%v,t%d)", v, ok, ticket)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"LF", "base WF", "opt WF (1+2)", "fast WF", "fast WF+HP", "sharded WF", "sharded WF+HP", "mutex"} {
		a, err := ByName(name)
		if err != nil || a.Name != name {
			t.Fatalf("ByName(%q) = (%q,%v)", name, a.Name, err)
		}
	}
	_, err := ByName("nope")
	if err == nil {
		t.Fatal("unknown algorithm resolved")
	}
	// The error must point the caller at what does exist.
	if msg := err.Error(); !strings.Contains(msg, `"nope"`) || !strings.Contains(msg, `"opt WF (1+2)"`) {
		t.Fatalf("unknown-algorithm error does not list the registry: %v", err)
	}
}

func TestFigureAlgorithmSets(t *testing.T) {
	f7 := Figure7Algorithms()
	if len(f7) != 3 || f7[0].Name != "LF" || f7[1].Name != "base WF" || f7[2].Name != "opt WF (1+2)" {
		t.Fatalf("figure 7 series: %v", names(f7))
	}
	f9 := Figure9Algorithms()
	if len(f9) != 4 {
		t.Fatalf("figure 9 series: %v", names(f9))
	}
}

func names(as []Algorithm) []string {
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = a.Name
	}
	return out
}

func TestWorkloadMetadata(t *testing.T) {
	if Pairs.String() == "" || Fifty.String() == "" || Pairs.String() == Fifty.String() {
		t.Fatal("bad workload names")
	}
	if Pairs.Prefill() != 0 || Fifty.Prefill() != 1000 {
		t.Fatalf("prefill: %d/%d", Pairs.Prefill(), Fifty.Prefill())
	}
}

func TestConfigValidation(t *testing.T) {
	_, err := Run(LF(), Config{Threads: 0, Iters: 10})
	if err == nil {
		t.Fatal("zero threads accepted")
	}
	_, err = Run(LF(), Config{Threads: 1, Iters: 0})
	if err == nil {
		t.Fatal("zero iters accepted")
	}
	_, err = Repeat(LF(), Config{Threads: 1, Iters: 1}, 0)
	if err == nil {
		t.Fatal("zero repeats accepted")
	}
}

func TestRunProducesPositiveDuration(t *testing.T) {
	for _, w := range []Workload{Pairs, Fifty} {
		for _, alg := range Figure7Algorithms() {
			d, err := Run(alg, Config{Workload: w, Threads: 3, Iters: 500, Seed: 1})
			if err != nil {
				t.Fatalf("%s/%s: %v", alg.Name, w, err)
			}
			if d <= 0 {
				t.Fatalf("%s/%s: non-positive duration %v", alg.Name, w, d)
			}
		}
	}
}

func TestRunUnderProfiles(t *testing.T) {
	for _, p := range Profiles() {
		t.Run(p.Name, func(t *testing.T) {
			d, err := Run(OptWF12(), Config{Workload: Pairs, Threads: 4, Iters: 300, Profile: p})
			if err != nil || d <= 0 {
				t.Fatalf("(%v,%v)", d, err)
			}
		})
	}
	// Profiles must restore GOMAXPROCS.
	before := runtime.GOMAXPROCS(0)
	_, err := Run(LF(), Config{Workload: Pairs, Threads: 2, Iters: 100,
		Profile: Profile{Name: "gmp", GOMAXPROCS: before + 1}})
	if err != nil {
		t.Fatal(err)
	}
	if after := runtime.GOMAXPROCS(0); after != before {
		t.Fatalf("GOMAXPROCS not restored: %d -> %d", before, after)
	}
}

func TestProfileByName(t *testing.T) {
	for _, name := range []string{"default", "preempt", "oversub"} {
		p, err := ProfileByName(name)
		if err != nil || p.Name != name {
			t.Fatalf("ProfileByName(%q) = (%q,%v)", name, p.Name, err)
		}
	}
	_, err := ProfileByName("windows")
	if err == nil {
		t.Fatal("unknown profile resolved")
	}
	if msg := err.Error(); !strings.Contains(msg, `"windows"`) || !strings.Contains(msg, `"oversub"`) {
		t.Fatalf("unknown-profile error does not list the profiles: %v", err)
	}
}

func TestRepeatSummarizes(t *testing.T) {
	s, err := Repeat(LF(), Config{Workload: Pairs, Threads: 2, Iters: 200}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 3 || s.Mean <= 0 || s.Min > s.Max {
		t.Fatalf("summary %+v", s)
	}
}

func TestSweepShape(t *testing.T) {
	pts, err := Sweep([]Algorithm{LF(), OptWF12()}, []int{1, 2}, Config{Workload: Pairs, Iters: 100}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("%d points", len(pts))
	}
	if pts[0].Algorithm != "LF" || pts[0].Threads != 1 ||
		pts[3].Algorithm != "opt WF (1+2)" || pts[3].Threads != 2 {
		t.Fatalf("ordering: %+v", pts)
	}
}

func TestThreadRange(t *testing.T) {
	r := ThreadRange(1, 4)
	if len(r) != 4 || r[0] != 1 || r[3] != 4 {
		t.Fatalf("%v", r)
	}
	if ThreadRange(3, 2) != nil {
		t.Fatal("inverted range not nil")
	}
}

func TestFiftyWorkloadDeterministicSeed(t *testing.T) {
	// Equal seeds must not error and must exercise both op kinds; we
	// can't assert equal durations, but we can assert the runs are
	// well-formed at several seeds.
	for seed := uint64(0); seed < 3; seed++ {
		if _, err := Run(BaseWF(), Config{Workload: Fifty, Threads: 2, Iters: 500, Seed: seed}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSpaceRunGrowsWithQueueSize(t *testing.T) {
	if testing.Short() {
		t.Skip("space probe is slow under -short")
	}
	cfg := SpaceConfig{Threads: 2, Samples: 3, Interval: time.Millisecond}
	cfg.InitialSize = 0
	small, err := SpaceRun(BaseWF(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.InitialSize = 200000
	big, err := SpaceRun(BaseWF(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 200k nodes at tens of bytes each must be clearly visible.
	if big <= small+1<<20 {
		t.Fatalf("live heap did not grow with queue size: %f -> %f", small, big)
	}
}

func TestSpaceSweepRatios(t *testing.T) {
	if testing.Short() {
		t.Skip("space sweep is slow under -short")
	}
	cfg := SpaceConfig{Threads: 2, Samples: 3, Interval: time.Millisecond}
	pts, err := SpaceSweep([]int{100000}, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("%d points", len(pts))
	}
	for _, p := range pts {
		if p.Algorithm == "LF" && p.Ratio != 1 {
			t.Fatalf("LF ratio %f", p.Ratio)
		}
		if p.Ratio <= 0 {
			t.Fatalf("ratio %f", p.Ratio)
		}
	}
	// At 100k elements the WF queues must cost more than LF (extra
	// enqTid/deqTid fields per node).
	for _, p := range pts {
		if p.Algorithm != "LF" && p.Ratio < 1.05 {
			t.Fatalf("%s ratio %.3f: expected visible per-node overhead", p.Algorithm, p.Ratio)
		}
	}
}

func TestSpaceConfigValidation(t *testing.T) {
	if _, err := SpaceRun(LF(), SpaceConfig{InitialSize: -1, Threads: 1, Samples: 1}); err == nil {
		t.Fatal("negative size accepted")
	}
	if _, err := SpaceRun(LF(), SpaceConfig{Threads: 0, Samples: 1}); err == nil {
		t.Fatal("zero threads accepted")
	}
	if _, err := SpaceSweep(nil, SpaceConfig{}, 0); err == nil {
		t.Fatal("zero repeats accepted")
	}
}
