package chaos

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"wfq/internal/yield"
)

func TestClassify(t *testing.T) {
	cases := map[yield.Point]Class{
		yield.KPBeforeAppend:       ClassEnqCAS,
		yield.KPFastAfterAppend:    ClassEnqCAS,
		yield.KPBeforeDeqTidCAS:    ClassDeqCAS,
		yield.KPFastAfterDeqTidCAS: ClassDeqCAS,
		yield.KPChainAfterAppend:   ClassChain,
		yield.KPChainBeforeSwing:   ClassChain,
		yield.RGEnqClaim:           ClassEnqCAS,
		yield.RGDeqClaim:           ClassDeqCAS,
		yield.RGSegAdvance:         ClassChain,
		yield.RGRetry:              ClassRetry,
		yield.RGRetireScan:         ClassChain,
		yield.RGHelpPinned:         ClassHelp,
		yield.SHEnqTicket:          ClassTicket,
		yield.SHDeqTicket:          ClassTicket,
		yield.WQBeforePark:         ClassPark,
		yield.WQCloseBroadcast:     ClassPark,
		yield.KPHelpScan:           ClassRetry,
		yield.KPEnqRetry:           ClassRetry,
		yield.KPFastDeqAttempt:     ClassRetry,
		yield.HTPropagate:          ClassTree,
		yield.HTRefresh:            ClassTree,
		yield.HTDescend:            ClassTree,
	}
	for p, want := range cases {
		if got := Classify(p); got != want {
			t.Errorf("Classify(%s) = %s, want %s", p, got, want)
		}
	}
}

func TestClassSet(t *testing.T) {
	s := Classes(ClassEnqCAS, ClassTicket)
	if !s.Has(ClassEnqCAS) || !s.Has(ClassTicket) {
		t.Fatalf("set %v missing its members", s)
	}
	if s.Has(ClassPark) || s.Has(ClassRetry) {
		t.Fatalf("set %v has spurious members", s)
	}
	if AllClasses.Has(ClassPark) {
		t.Fatal("AllClasses must exclude parking")
	}
	if !AllClasses.Has(ClassTree) {
		t.Fatal("AllClasses must include the helptree class")
	}
	if got := Classes(ClassDeqCAS).String(); got != "deq-cas" {
		t.Fatalf("String() = %q", got)
	}
}

func TestProfileByName(t *testing.T) {
	for _, p := range AllProfiles {
		got, err := ProfileByName(p.String())
		if err != nil || got != p {
			t.Fatalf("ProfileByName(%q) = %v, %v", p.String(), got, err)
		}
	}
	_, err := ProfileByName("nonsense")
	if err == nil {
		t.Fatal("want error for unknown profile")
	}
	if !strings.Contains(err.Error(), PermanentKill.String()) {
		t.Fatalf("unknown-profile error does not list the profiles: %v", err)
	}
}

// Victim choice must be a pure function of the seed so a failing run's
// adversary can be replayed from its reported seed alone.
func TestAntagonistDeterministicVictims(t *testing.T) {
	mk := func(seed uint64) []int {
		return NewAntagonist(AntagonistConfig{
			Profile: PermanentKill, Threads: 16, Seed: seed,
		}).Victims()
	}
	a, b := mk(42), mk(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different victims: %v vs %v", a, b)
	}
	if len(a) != 4 { // default: Threads/4
		t.Fatalf("want 4 victims of 16 threads, got %v", a)
	}
	single := NewAntagonist(AntagonistConfig{
		Profile: SingleStall, Threads: 16, Seed: 42,
	}).Victims()
	if len(single) != 1 {
		t.Fatalf("single-stall wants 1 victim, got %v", single)
	}
	// Eligibility restriction must hold (the blocking scenario's
	// consumers-only constraint relies on it).
	elig := NewAntagonist(AntagonistConfig{
		Profile: PermanentKill, Threads: 16, Seed: 7,
		Eligible: []int{8, 9, 10, 11, 12, 13, 14, 15}, NumVictims: 3,
	}).Victims()
	if len(elig) != 3 {
		t.Fatalf("want 3 victims, got %v", elig)
	}
	for _, v := range elig {
		if v < 8 {
			t.Fatalf("victim %d outside eligible set", v)
		}
	}
}

func TestTraceEventPacking(t *testing.T) {
	for _, tc := range []struct {
		seq           uint64
		p             yield.Point
		caller, owner int
	}{
		{1, yield.KPBeforeAppend, 0, 0},
		{1 << 30, yield.WQNotify, 5, -1},
		{99, yield.SHDeqTicket, 127, 3},
	} {
		got := unpackEvent(packEvent(tc.seq, tc.p, tc.caller, tc.owner))
		want := TraceEvent{Seq: tc.seq, Point: tc.p, Caller: tc.caller, Owner: tc.owner}
		if got != want {
			t.Errorf("roundtrip %+v -> %+v", want, got)
		}
	}
}

func TestWatchdogTripsOnExceededBound(t *testing.T) {
	wd := NewWatchdog(2)
	wd.BeginOp(0, 4)
	for i := 0; i < 10; i++ {
		wd.Observe(yield.KPEnqRetry, 0, 0)
	}
	wd.EndOp(0)
	vs := wd.Violations()
	if len(vs) != 1 {
		t.Fatalf("want exactly 1 violation (reported once per op), got %d: %v", len(vs), vs)
	}
	v := vs[0]
	if v.Kind != "step-bound" || v.TID != 0 || v.Steps != 5 || v.Bound != 4 {
		t.Fatalf("bad violation: %+v", v)
	}
	if len(v.Trace) == 0 {
		t.Fatal("violation carries no point trace")
	}
	if wd.WorstSteps() != 10 {
		t.Fatalf("WorstSteps = %d, want 10", wd.WorstSteps())
	}
}

func TestWatchdogIgnoresParkAndUnbracketedSteps(t *testing.T) {
	wd := NewWatchdog(1)
	// Outside any op: never counted.
	wd.Observe(yield.KPEnqRetry, 0, 0)
	wd.BeginOp(0, 2)
	// Park-class points are waiting, not starving: never counted.
	for i := 0; i < 10; i++ {
		wd.Observe(yield.WQBeforePark, 0, -1)
	}
	wd.Observe(yield.KPEnqRetry, 0, 0)
	if n := wd.EndOp(0); n != 1 {
		t.Fatalf("op counted %d steps, want 1", n)
	}
	if vs := wd.Violations(); len(vs) != 0 {
		t.Fatalf("unexpected violations: %v", vs)
	}
}

func TestWatchdogChecks(t *testing.T) {
	wd := NewWatchdog(1)
	wd.CheckConservation(10, 6, 4) // balanced
	wd.CheckPhase(12345)           // sane
	wd.CheckPhase(-1)              // the "nothing published yet" sentinel is sane too
	if vs := wd.Violations(); len(vs) != 0 {
		t.Fatalf("false positives: %v", vs)
	}
	wd.CheckConservation(10, 6, 3)
	wd.CheckPhase(-2) // below the sentinel: only overflow gets here
	vs := wd.Violations()
	if len(vs) != 2 || vs[0].Kind != "conservation" || vs[1].Kind != "phase-wrap" {
		t.Fatalf("want conservation+phase-wrap, got %v", vs)
	}
}

func TestStepBoundShape(t *testing.T) {
	for _, kind := range []BoundKind{BoundPolylog, BoundScan} {
		if StepBound(kind, 8, 0, 1) >= StepBound(kind, 8, 8, 1) {
			t.Fatal("bound must grow with patience")
		}
		if StepBound(kind, 4, 8, 1) >= StepBound(kind, 16, 8, 1) {
			t.Fatal("bound must grow with thread count")
		}
		if 4*StepBound(kind, 8, 8, 1) != StepBound(kind, 8, 8, 4) {
			t.Fatal("batch of k budgets k single ops")
		}
	}
	// The point of the polylog bound: it must grow sub-linearly while
	// the scan bound grows quadratically. 2 -> 64 threads is 32x; the
	// polylog budget may grow at most ~6x (L² goes 4 -> 49).
	lo := StepBound(BoundPolylog, 2, 0, 1)
	hi := StepBound(BoundPolylog, 64, 0, 1)
	if hi >= 32*lo {
		t.Fatalf("polylog bound not sub-linear: n=2 -> %d, n=64 -> %d", lo, hi)
	}
	if StepBound(BoundScan, 64, 0, 1) <= 4*hi {
		t.Fatalf("scan bound should dwarf polylog at n=64")
	}
}

// TestStepBoundPinned is the regression pin ISSUE.md asks for: the exact
// budgets at n ∈ {2, 8, 64}. Changing the formula is allowed, but it
// must be a deliberate act that updates these numbers (and re-runs the
// full matrix plus cmd/wfqchaos -series to re-validate headroom).
func TestStepBoundPinned(t *testing.T) {
	cases := []struct {
		kind               BoundKind
		n, patience, batch int
		want               int64
	}{
		{BoundPolylog, 2, 0, 1, 512 + 16 + 96*2*2},   // 912
		{BoundPolylog, 8, 0, 1, 512 + 16 + 96*4*4},   // 2064
		{BoundPolylog, 64, 0, 1, 512 + 16 + 96*7*7},  // 5232
		{BoundPolylog, 8, 8, 1, 512 + 16*9 + 96*4*4}, // 2192
		{BoundPolylog, 8, 0, 4, (512 + 16 + 1536) * 4},
		{BoundScan, 2, 0, 1, 512 + 16 + 64*2*2},
		{BoundScan, 8, 0, 1, 512 + 16 + 64*8*8},
		{BoundScan, 64, 0, 1, 512 + 16 + 64*64*64},
	}
	for _, tc := range cases {
		if got := StepBound(tc.kind, tc.n, tc.patience, tc.batch); got != tc.want {
			t.Errorf("StepBound(%v, n=%d, p=%d, b=%d) = %d, want %d",
				tc.kind, tc.n, tc.patience, tc.batch, got, tc.want)
		}
	}
}

// TestRunMatrix is the acceptance check: every frontend scenario under
// every adversary profile, zero violations, and the step budget holding
// with real headroom. Sized to stay fast under -race; cmd/wfqchaos runs
// the big version.
func TestRunMatrix(t *testing.T) {
	for _, scenario := range AllScenarios {
		for _, profile := range AllProfiles {
			t.Run(scenario+"/"+profile.String(), func(t *testing.T) {
				res, err := Run(Config{
					Scenario: scenario, Profile: profile,
					Threads: 8, Ops: 300, Seed: 0x5eed,
					Deadline: 30 * time.Second,
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range res.Violations {
					t.Errorf("violation: %v", v)
				}
				if res.WorstSteps == 0 {
					t.Error("watchdog observed no steps — wiring broken")
				}
				if res.HookEvents == 0 {
					t.Error("antagonist saw no events — hook not installed")
				}
				switch profile {
				case SingleStall:
					if len(res.Victims) != 1 {
						t.Errorf("single-stall victims = %v", res.Victims)
					}
				case PermanentKill:
					if len(res.Victims) == 0 {
						t.Errorf("permanent-kill chose no victims")
					}
				case RollingStall:
					if len(res.Victims) != 0 {
						t.Errorf("rolling-stall must not freeze: %v", res.Victims)
					}
					if res.Stalls == 0 {
						t.Errorf("rolling-stall injected no delays")
					}
				}
				// The freeze rendezvous: a run only certifies its
				// adversary if every victim really was frozen.
				if res.FrozenVictims != len(res.Victims) {
					t.Errorf("only %d of %d victims froze", res.FrozenVictims, len(res.Victims))
				}
			})
		}
	}
}

// TestRunReproducible: same config, same seed => same adversary strategy
// and same workload op counts. Step counts and latencies vary with
// physical scheduling; the decision stream must not. RollingStall is the
// profile where full determinism of the op tallies is provable (no
// victim breaks out of its quota at a scheduling-dependent instant).
func TestRunReproducible(t *testing.T) {
	run := func() Result {
		res, err := Run(Config{
			Scenario: "core-fast", Profile: RollingStall,
			Threads: 4, Ops: 200, Seed: 99,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Victims, b.Victims) {
		t.Fatalf("victims differ across runs: %v vs %v", a.Victims, b.Victims)
	}
	if a.Enqueued != b.Enqueued {
		t.Fatalf("op mix not seed-deterministic: %d vs %d enqueued", a.Enqueued, b.Enqueued)
	}
}
