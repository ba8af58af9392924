package explore

import (
	"fmt"
	"strings"
	"testing"

	"wfq/internal/core"
	"wfq/internal/queues"
	"wfq/internal/ring"
)

func kpBase(n int) queues.Queue { return core.New[int64](n) }
func kpOpt12(n int) queues.Queue {
	return core.New[int64](n, core.WithVariant(core.VariantOpt12))
}
func kpClearCache(n int) queues.Queue {
	return core.New[int64](n, core.WithClearOnExit(), core.WithDescriptorCache())
}
func kpHP(n int) queues.Queue { return core.NewHP[int64](n, 4, 2) }
func kpFast1(n int) queues.Queue {
	return core.New[int64](n, core.WithFastPath(1))
}
func kpFast2(n int) queues.Queue {
	return core.New[int64](n, core.WithFastPath(2))
}
func kpHPFast(n int) queues.Queue {
	return core.NewHP[int64](n, 4, 2, core.WithFastPath(1))
}

// mustExplore runs an exhaustive exploration and fails the test on any
// violating interleaving.
func mustExplore(t *testing.T, progs [][]Op, mk func(int) queues.Queue, maxRuns int) Report {
	t.Helper()
	rep, err := Explore(Options{Progs: progs, NewQueue: mk, MaxRuns: maxRuns})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Failures {
		t.Errorf("violation: %s\n  schedule: %v", f.Reason, f.Schedule)
	}
	if len(rep.Failures) > 0 {
		t.FailNow()
	}
	if rep.Runs == 0 {
		t.Fatal("no interleavings executed")
	}
	return rep
}

func TestSingleThreadSingleOp(t *testing.T) {
	rep := mustExplore(t, [][]Op{{EnqOp(1)}}, kpBase, 100)
	if !rep.Complete {
		t.Fatal("trivial space not exhausted")
	}
	if rep.Runs != 1 {
		t.Fatalf("%d runs for a single-thread program", rep.Runs)
	}
}

// TestEnqEnqInterleavings: two concurrent enqueues — every explored
// interleaving of their steps must linearize (§5 Lemma 1 territory).
// The space is larger than it looks (each thread may also help the
// other, lengthening schedules), so this is bounded DFS exploration:
// the first N schedules in depth-first order, all of which must pass.
func TestEnqEnqInterleavings(t *testing.T) {
	rep := mustExplore(t, [][]Op{{EnqOp(101)}, {EnqOp(202)}}, kpBase, 20000)
	if rep.Runs < 1000 {
		t.Fatalf("implausibly few interleavings: %d", rep.Runs)
	}
	t.Logf("enq/enq: %d interleavings (complete=%v), max %d decisions", rep.Runs, rep.Complete, rep.MaxDecisions)
}

// TestEnqDeqInterleavings: a concurrent enqueue and dequeue over an
// empty queue — the empty/non-empty race of help_deq Stage 1 (§3.2).
func TestEnqDeqInterleavings(t *testing.T) {
	rep := mustExplore(t, [][]Op{{EnqOp(7)}, {DeqOp()}}, kpBase, 20000)
	t.Logf("enq/deq: %d interleavings (complete=%v)", rep.Runs, rep.Complete)
}

// TestDeqDeqInterleavings: two dequeues racing over one element —
// exactly one must win it, the other must report empty, in every
// explored interleaving (§5 Lemma 2 territory).
func TestDeqDeqInterleavings(t *testing.T) {
	rep, err := Explore(Options{
		Progs:    [][]Op{{DeqOp()}, {DeqOp()}},
		NewQueue: kpBase,
		Initial:  []int64{55},
		MaxRuns:  20000,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Failures {
		t.Errorf("violation: %s\n  schedule: %v", f.Reason, f.Schedule)
	}
	t.Logf("deq/deq: %d interleavings (complete=%v)", rep.Runs, rep.Complete)
}

// TestPairsInterleavings: enq+deq against enq+deq — the workload of the
// paper's first benchmark at model-checking scale.
func TestPairsInterleavings(t *testing.T) {
	if testing.Short() {
		t.Skip("large interleaving space")
	}
	progs := [][]Op{{EnqOp(1), DeqOp()}, {EnqOp(2), DeqOp()}}
	rep := mustExplore(t, progs, kpBase, 60000)
	t.Logf("pairs: %d interleavings, complete=%v", rep.Runs, rep.Complete)
	if rep.Runs < 100 {
		t.Fatalf("implausibly few interleavings: %d", rep.Runs)
	}
}

// TestVariantsUnderExploration drives the optimized, enhanced and HP
// configurations through the enq/deq race exhaustively.
func TestVariantsUnderExploration(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(int) queues.Queue
	}{
		{"opt12", kpOpt12},
		{"clear+cache", kpClearCache},
		{"hp", kpHP},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep := mustExplore(t, [][]Op{{EnqOp(7)}, {DeqOp()}}, tc.mk, 10000)
			t.Logf("%s: %d interleavings (complete=%v)", tc.name, rep.Runs, rep.Complete)
		})
	}
}

// TestFastPathInterleavings walks the fast/slow boundary systematically.
// With patience 1 or 2 the explorer reaches, in depth-first order,
// schedules where (a) a fast append lands and a concurrent slow-path
// helper runs help_finish_enq against the descriptor-less node, (b) a
// fast dequeue's deqTid claim races the other thread's Stage 2 CAS on
// the same sentinel, and (c) patience expires mid-operation and the node
// is re-owned by the slow path. Every explored interleaving must still
// linearize and conserve values.
func TestFastPathInterleavings(t *testing.T) {
	progs := map[string][][]Op{
		"enq-enq": {{EnqOp(101)}, {EnqOp(202)}},
		"enq-deq": {{EnqOp(7)}, {DeqOp()}},
	}
	for _, tc := range []struct {
		name string
		mk   func(int) queues.Queue
	}{
		{"patience1", kpFast1},
		{"patience2", kpFast2},
		{"hp-patience1", kpHPFast},
	} {
		for pname, prog := range progs {
			t.Run(tc.name+"/"+pname, func(t *testing.T) {
				rep := mustExplore(t, prog, tc.mk, 20000)
				t.Logf("%d interleavings (complete=%v), max %d decisions",
					rep.Runs, rep.Complete, rep.MaxDecisions)
			})
		}
	}
}

// TestFastPathDeqDeqInterleavings: two fast-path dequeues racing over a
// single element — the deqTid claim (noTID → fastTID) is the only
// arbiter, and exactly one thread may win it in every schedule.
func TestFastPathDeqDeqInterleavings(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(int) queues.Queue
	}{
		{"patience1", kpFast1},
		{"patience2", kpFast2},
		{"hp-patience1", kpHPFast},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := Explore(Options{
				Progs:    [][]Op{{DeqOp()}, {DeqOp()}},
				NewQueue: tc.mk,
				Initial:  []int64{55},
				MaxRuns:  20000,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range rep.Failures {
				t.Errorf("violation: %s\n  schedule: %v", f.Reason, f.Schedule)
			}
			if rep.Runs == 0 {
				t.Fatal("no interleavings executed")
			}
			t.Logf("%d interleavings (complete=%v)", rep.Runs, rep.Complete)
		})
	}
}

// TestThreeThreads: an enqueuer, a dequeuer and a second enqueuer —
// random sampling over a space too large to exhaust.
func TestThreeThreadsRandom(t *testing.T) {
	progs := [][]Op{{EnqOp(1)}, {DeqOp()}, {EnqOp(3)}}
	rep, err := Explore(Options{
		Progs:    progs,
		NewQueue: kpBase,
		MaxRuns:  300,
		Random:   true,
		Seed:     42,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Failures {
		t.Errorf("violation: %s\n  schedule: %v", f.Reason, f.Schedule)
	}
	if rep.Runs != 300 {
		t.Fatalf("%d runs", rep.Runs)
	}
}

// TestDetectsBrokenQueue proves the explorer can actually catch bugs: a
// deliberately non-linearizable "queue" (LIFO stack) must produce
// failures.
func TestDetectsBrokenQueue(t *testing.T) {
	mk := func(n int) queues.Queue { return &stack{} }
	progs := [][]Op{{EnqOp(1), EnqOp(2), DeqOp(), DeqOp()}}
	rep, err := Explore(Options{Progs: progs, NewQueue: mk, MaxRuns: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures) == 0 {
		t.Fatal("LIFO behaviour not detected")
	}
	if !strings.Contains(rep.Failures[0].Reason, "linearizable") {
		t.Fatalf("unexpected reason %q", rep.Failures[0].Reason)
	}
}

// TestDetectsLostValue: a queue that drops every other enqueue must
// fail conservation.
func TestDetectsLostValue(t *testing.T) {
	mk := func(n int) queues.Queue { return &lossy{} }
	progs := [][]Op{{EnqOp(1), EnqOp(2)}}
	rep, err := Explore(Options{Progs: progs, NewQueue: mk, MaxRuns: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures) == 0 {
		t.Fatal("lost value not detected")
	}
}

func TestOptionValidation(t *testing.T) {
	if _, err := Explore(Options{}); err == nil {
		t.Fatal("empty program accepted")
	}
	if _, err := Explore(Options{Progs: [][]Op{{EnqOp(1)}}}); err == nil {
		t.Fatal("nil NewQueue accepted")
	}
}

// stack is a deliberately wrong (LIFO) implementation used to verify the
// explorer's detection power.
type stack struct{ xs []int64 }

func (s *stack) Enqueue(_ int, v int64) { s.xs = append(s.xs, v) }
func (s *stack) Dequeue(_ int) (int64, bool) {
	if len(s.xs) == 0 {
		return 0, false
	}
	v := s.xs[len(s.xs)-1]
	s.xs = s.xs[:len(s.xs)-1]
	return v, true
}

// lossy drops every second enqueue.
type lossy struct {
	n  int
	xs []int64
}

func (l *lossy) Enqueue(_ int, v int64) {
	l.n++
	if l.n%2 == 1 {
		l.xs = append(l.xs, v)
	}
}
func (l *lossy) Dequeue(_ int) (int64, bool) {
	if len(l.xs) == 0 {
		return 0, false
	}
	v := l.xs[0]
	l.xs = l.xs[1:]
	return v, true
}

// ringSlow builds the ring engine with every operation on the helping
// slow path (patience 0): each enqueue publishes a ticket and reserves
// its slot, and each dequeue publishes a ticket on its claim. Segments
// of one or two slots put a boundary install, a head swing and a retire
// next to nearly every step.
func ringSlow(segSize int) func(int) queues.Queue {
	return func(n int) queues.Queue { return ring.New[int64](n, segSize, ring.WithPatience(0)) }
}

// TestRingSlowPathInterleavings samples schedules of the ring's
// reserve/finalize/promote and burn/re-claim protocol, with segment
// install, retire and pooling in between, over the enq‖deq race and two
// enq+deq pairs. The burn/re-claim loops have no bound, so a depth-first
// search does not finish; this is seeded random sampling (Complete is
// always false), not an exhaustive proof. Every sampled schedule must
// linearize and conserve values.
func TestRingSlowPathInterleavings(t *testing.T) {
	progs := []struct {
		name string
		prog [][]Op
	}{
		{"enq-deq", [][]Op{{EnqOp(7)}, {DeqOp()}}},
		{"pairs", [][]Op{{EnqOp(1), DeqOp()}, {EnqOp(2), DeqOp()}}},
	}
	for _, segSize := range []int{1, 2} {
		for _, p := range progs {
			t.Run(fmt.Sprintf("seg%d/%s", segSize, p.name), func(t *testing.T) {
				rep, err := Explore(Options{
					Progs:    p.prog,
					NewQueue: ringSlow(segSize),
					MaxRuns:  10000,
					Random:   true,
					Seed:     uint64(segSize)*1000 + uint64(len(p.prog[0])),
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range rep.Failures {
					t.Errorf("violation: %s\n  schedule: %v", f.Reason, f.Schedule)
				}
				t.Logf("%d sampled schedules (complete=%v), max %d decisions",
					rep.Runs, rep.Complete, rep.MaxDecisions)
			})
		}
	}
}
