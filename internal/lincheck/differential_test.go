package lincheck

import (
	"testing"
	"testing/quick"

	"wfq/internal/model"
	"wfq/internal/xrand"
)

// bruteCheck decides linearizability by enumerating every permutation of
// the history that respects real-time order and replaying it against the
// model — exponential, usable only for tiny histories, and obviously
// correct. It is the oracle the production checker is fuzzed against.
func bruteCheck(hist []Op, initial []int64) Result {
	n := len(hist)
	used := make([]bool, n)
	var rec func(spec *model.Queue, done int) bool
	rec = func(spec *model.Queue, done int) bool {
		if done == n {
			return true
		}
		// minRes among pending ops bounds which ops may go next.
		minRes := int64(1<<63 - 1)
		for i, op := range hist {
			if !used[i] && op.Res < minRes {
				minRes = op.Res
			}
		}
		for i, op := range hist {
			if used[i] || op.Inv > minRes {
				continue
			}
			var next *model.Queue
			switch {
			case op.Kind == Enq:
				next = spec.Clone()
				next.Enqueue(op.Arg)
			case op.OK:
				if v, ok := spec.Peek(); ok && v == op.Ret {
					next = spec.Clone()
					next.Dequeue()
				}
			default:
				if spec.Empty() {
					next = spec
				}
			}
			if next == nil {
				continue
			}
			used[i] = true
			if rec(next, done+1) {
				used[i] = false
				return true
			}
			used[i] = false
		}
		return false
	}
	spec := &model.Queue{}
	for _, v := range initial {
		spec.Enqueue(v)
	}
	if rec(spec, 0) {
		return Linearizable
	}
	return NotLinearizable
}

// genHistory decodes fuzz bytes into a small well-formed history: random
// op kinds, arguments, results, and interval endpoints.
func genHistory(data []byte) []Op {
	const maxOps = 6
	var hist []Op
	clock := int64(1)
	// First pass: create ops with invocation times.
	for i := 0; i+3 < len(data) && len(hist) < maxOps; i += 4 {
		op := Op{ID: len(hist), TID: int(data[i]) % 3}
		switch data[i+1] % 3 {
		case 0:
			op.Kind = Enq
			op.Arg = int64(data[i+2] % 4)
			op.OK = true
		case 1:
			op.Kind = Deq
			op.OK = true
			op.Ret = int64(data[i+2] % 4)
		default:
			op.Kind = Deq
			op.OK = false
		}
		op.Inv = clock
		clock++
		// Response offset: small, so intervals overlap sometimes.
		op.Res = op.Inv + 1 + int64(data[i+3]%8)
		hist = append(hist, op)
	}
	// Make timestamps unique-ish by spreading responses.
	seen := map[int64]bool{}
	for i := range hist {
		for seen[hist[i].Res] || hist[i].Res <= hist[i].Inv {
			hist[i].Res++
		}
		seen[hist[i].Res] = true
	}
	return hist
}

func FuzzCheckerVsBruteForce(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 1, 1, 1, 0})
	f.Add([]byte{0, 0, 1, 0, 0, 1, 1, 0, 1, 2, 0, 0})
	f.Add([]byte{2, 1, 3, 7, 0, 0, 2, 1, 1, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		hist := genHistory(data)
		if len(hist) == 0 {
			return
		}
		initial := []int64{}
		if len(data) > 0 && data[0]%2 == 0 {
			initial = []int64{1}
		}
		var c Checker
		got, err := c.CheckFrom(hist, initial)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteCheck(hist, initial)
		if got != want {
			t.Fatalf("checker=%v brute=%v for history %v (initial %v)", got, want, hist, initial)
		}
	})
}

// TestCheckerVsBruteForceQuick runs the same differential via
// testing/quick so it exercises in ordinary `go test` runs at volume.
func TestCheckerVsBruteForceQuick(t *testing.T) {
	if err := quick.Check(func(data []byte) bool {
		hist := genHistory(data)
		initial := []int64{}
		if len(data) > 2 && data[1]%3 == 0 {
			initial = []int64{int64(data[2] % 4)}
		}
		var c Checker
		got, err := c.CheckFrom(hist, initial)
		if err != nil {
			return false
		}
		return got == bruteCheck(hist, initial)
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// genGhostHistory draws a random well-formed history of n ops in which
// enqueues range over more values than dequeues return, so most
// histories hold ghosts (enqueued values no dequeue returns) next to
// dequeued ones, often with the same value enqueued twice.
func genGhostHistory(rng *xrand.Xoshiro256, n int) []Op {
	hist := make([]Op, n)
	seen := map[int64]bool{}
	for i := range hist {
		op := Op{ID: i, TID: rng.Intn(3), Inv: int64(i + 1)}
		switch rng.Intn(5) {
		case 0, 1, 2:
			op.Kind, op.Arg, op.OK = Enq, int64(rng.Intn(6)), true
		case 3:
			op.Kind, op.Ret, op.OK = Deq, int64(rng.Intn(3)), true
		default:
			op.Kind = Deq
		}
		op.Res = op.Inv + 1 + int64(rng.Intn(8))
		for seen[op.Res] {
			op.Res++
		}
		seen[op.Res] = true
		hist[i] = op
	}
	return hist
}

// TestGhostReductionsVsBruteForce pins the Checker's ghost reductions
// (see its doc comment) against the unreduced, unmemoized bruteCheck on
// histories longer than genHistory's and dominated by ghosts, with and
// without an initial queue whose value may itself be a ghost.
func TestGhostReductionsVsBruteForce(t *testing.T) {
	rng := xrand.New(15)
	verdicts := map[Result]int{}
	for i := 0; i < 20000; i++ {
		hist := genGhostHistory(rng, 4+rng.Intn(5))
		var initial []int64
		if rng.Bool() {
			initial = []int64{int64(rng.Intn(6))}
		}
		var c Checker
		got, err := c.CheckFrom(hist, initial)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteCheck(hist, initial); got != want {
			t.Fatalf("checker=%v brute=%v for history %v (initial %v)", got, want, hist, initial)
		}
		verdicts[got]++
	}
	if verdicts[Linearizable] == 0 || verdicts[NotLinearizable] == 0 {
		t.Fatalf("differential saw one verdict only: %v", verdicts)
	}
}
