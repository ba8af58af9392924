package lincheck

import (
	"encoding/binary"
	"errors"
	"fmt"

	"wfq/internal/model"
)

// Result is the outcome of a linearizability check.
type Result int

// Check outcomes.
const (
	// Linearizable: a witness linearization order exists.
	Linearizable Result = iota
	// NotLinearizable: the search space was exhausted with no witness.
	NotLinearizable
	// Unknown: the step budget ran out before a verdict.
	Unknown
)

// String names the result.
func (r Result) String() string {
	switch r {
	case Linearizable:
		return "linearizable"
	case NotLinearizable:
		return "NOT linearizable"
	default:
		return "unknown (budget exhausted)"
	}
}

// ErrBadHistory reports a structurally invalid history (e.g. a response
// before its invocation), which indicates a recorder bug rather than a
// queue bug.
var ErrBadHistory = errors.New("lincheck: malformed history")

// Checker runs the Wing–Gong linearizability search with Lowe-style
// memoization. Zero value is usable; set Budget to bound worst-case work.
//
// Enqueues of values that no dequeue in the history returns (ghosts)
// get two exact reductions. In any witness a ghost sits behind every
// value that is ever dequeued and no empty dequeue follows it, so (1)
// moving a ghost later, up to the point where it is the pending
// operation with the earliest response, keeps the witness valid, and
// the search tries a ghost only there; and (2) states that differ only
// in which ghost sits where in the queue have the same future, so the
// memo key writes every ghost alike. Without them the search enumerates
// every order of concurrent enqueues that are never dequeued.
type Checker struct {
	// Budget limits the number of DFS steps (candidate applications).
	// 0 means DefaultBudget. When exhausted the check returns Unknown.
	Budget int
	// Witness receives the linearization order found (operation IDs)
	// when the history is linearizable and Witness is non-nil.
	Witness *[]int
}

// DefaultBudget is the DFS step limit used when Checker.Budget is 0. It is
// generous: real linearizable queue histories of a few hundred operations
// check in well under this.
const DefaultBudget = 50_000_000

// Check decides linearizability of hist against the FIFO queue spec,
// starting from an empty queue.
func (c *Checker) Check(hist []Op) (Result, error) {
	return c.CheckFrom(hist, nil)
}

// CheckFrom decides linearizability of hist against the FIFO queue spec,
// starting from a queue pre-filled with initial (oldest first). This
// supports the 50%-enqueues benchmark, whose queue starts with 1000
// elements.
func (c *Checker) CheckFrom(hist []Op, initial []int64) (Result, error) {
	n := len(hist)
	if n == 0 {
		return Linearizable, nil
	}
	for _, op := range hist {
		if op.Res < op.Inv {
			return Unknown, fmt.Errorf("%w: op %v has response before invocation", ErrBadHistory, op)
		}
	}
	budget := c.Budget
	if budget == 0 {
		budget = DefaultBudget
	}

	spec := &model.Queue{}
	for _, v := range initial {
		spec.Enqueue(v)
	}

	s := &search{
		hist:     hist,
		done:     make([]bool, n),
		seen:     make(map[string]struct{}),
		dequeued: make(map[int64]bool),
		budget:   budget,
		order:    make([]int, 0, n),
	}
	for _, op := range hist {
		if op.Kind == Deq && op.OK {
			s.dequeued[op.Ret] = true
		}
	}
	ok, exhausted := s.dfs(spec, 0)
	switch {
	case ok:
		if c.Witness != nil {
			*c.Witness = append([]int(nil), s.order...)
		}
		return Linearizable, nil
	case exhausted:
		return Unknown, nil
	default:
		return NotLinearizable, nil
	}
}

// CheckSharded decides linearizability of hist against the sharded
// (bag-of-FIFOs) specification of internal/sharded: every operation
// carries the shard its dispatch ticket named (Op.Shard, recorded via
// Recorder.SetShard), the history is partitioned by shard, and each
// partition must independently linearize against the FIFO specification.
//
// This is exactly the sharded queue's contract — N independent
// linearizable FIFO shards behind a wait-free dispatcher whose ticket
// assignment is the observed Shard tag — and by the locality of
// linearizability (Herlihy & Wing 1990, Theorem 1: a history is
// linearizable iff each per-object subhistory is) checking the
// partitions separately is sound and complete for it. A deq that
// reported empty must have found ITS shard empty, which the per-shard
// FIFO check enforces; no cross-shard ordering is required, which the
// partitioning grants.
//
// The verdict is the worst across shards (NotLinearizable dominates
// Unknown dominates Linearizable); c.Witness is ignored. An operation
// with Shard < 0 is ErrBadHistory: sharded checking needs every op
// tagged.
func (c *Checker) CheckSharded(hist []Op) (Result, error) {
	parts := map[int][]Op{}
	for _, op := range hist {
		if op.Shard < 0 {
			return Unknown, fmt.Errorf("%w: op %v has no shard tag", ErrBadHistory, op)
		}
		parts[op.Shard] = append(parts[op.Shard], op)
	}
	sub := Checker{Budget: c.Budget}
	worst := Linearizable
	for _, part := range parts {
		res, err := sub.Check(part)
		if err != nil {
			return Unknown, err
		}
		switch {
		case res == NotLinearizable:
			return NotLinearizable, nil
		case res == Unknown:
			worst = Unknown
		}
	}
	return worst, nil
}

type search struct {
	hist []Op
	done []bool
	seen map[string]struct{}
	// dequeued holds every value some successful dequeue returns; an
	// enqueue of any other value is a ghost (see dfs and stateKey).
	dequeued map[int64]bool
	budget   int
	order    []int
	nDone    int
}

// dfs tries to linearize the remaining operations given the current spec
// state. ok reports success; exhausted reports that the budget ran out
// somewhere below (so a false ok is not a proof of non-linearizability).
func (s *search) dfs(spec *model.Queue, depth int) (ok, exhausted bool) {
	if s.nDone == len(s.hist) {
		return true, false
	}
	if s.budget <= 0 {
		return false, true
	}
	key := s.stateKey(spec)
	if _, dup := s.seen[key]; dup {
		return false, false
	}
	s.seen[key] = struct{}{}

	// minRes is the earliest response among pending (not yet
	// linearized) operations: any operation invoked after minRes cannot
	// be linearized before the op that owns minRes, so candidates are
	// exactly the pending ops with Inv < minRes (<= is safe because
	// timestamps are unique).
	minRes := int64(1<<63 - 1)
	for i, op := range s.hist {
		if !s.done[i] && op.Res < minRes {
			minRes = op.Res
		}
	}

	anyExhausted := false
	for i, op := range s.hist {
		if s.done[i] || op.Inv > minRes {
			continue
		}
		if op.Kind == Enq && !s.dequeued[op.Arg] && op.Res != minRes {
			continue // a ghost is tried only once it is forced (Checker)
		}
		s.budget--
		// Apply op to a forked spec state if it is legal.
		var next *model.Queue
		switch {
		case op.Kind == Enq:
			next = spec.Clone()
			next.Enqueue(op.Arg)
		case op.OK:
			if v, okPeek := spec.Peek(); okPeek && v == op.Ret {
				next = spec.Clone()
				next.Dequeue()
			}
		default: // deq reported empty
			if spec.Empty() {
				next = spec // no state change; safe to share
			}
		}
		if next == nil {
			continue
		}
		s.done[i] = true
		s.nDone++
		s.order = append(s.order, op.ID)
		okBelow, exBelow := s.dfs(next, depth+1)
		if okBelow {
			return true, false
		}
		anyExhausted = anyExhausted || exBelow
		s.order = s.order[:len(s.order)-1]
		s.nDone--
		s.done[i] = false
		if s.budget <= 0 {
			return false, true
		}
	}
	return false, anyExhausted
}

// stateKey serializes (done-set, spec contents) exactly — no lossy
// hashing — so the memoization can never prune a genuinely new state.
// A ghost is written as one 0 byte, any other value as a 1 byte and its
// eight bytes, which keeps the encoding unambiguous.
func (s *search) stateKey(spec *model.Queue) string {
	words := (len(s.done) + 7) / 8
	buf := make([]byte, words, words+9*spec.Len())
	for i, d := range s.done {
		if d {
			buf[i/8] |= 1 << (i % 8)
		}
	}
	for _, v := range spec.Snapshot() {
		if !s.dequeued[v] {
			buf = append(buf, 0)
			continue
		}
		buf = append(buf, 1)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	return string(buf)
}
