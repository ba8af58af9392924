package lincheck

import (
	"sync"
	"testing"

	"wfq/internal/core"
	"wfq/internal/xrand"
)

// batchQueue is the contract the batch lincheck tests drive.
type batchQueue interface {
	Enqueue(tid int, v int64)
	Dequeue(tid int) (int64, bool)
	EnqueueBatch(tid int, vs []int64)
	DequeueBatch(tid int, dst []int64) int
}

// recordBatchHistory drives threads workers over q with a seeded mix of
// single and batch operations. A batch call is recorded as its individual
// element operations, every Begin before the call and every End after it:
// each element op's real-time window spans the whole batch call, which is
// exactly the freedom the linearizability definition grants — the checker
// must then find SOME order of the elements (for a contiguous batch
// enqueue, the in-batch order) that satisfies FIFO against everything
// concurrent.
func recordBatchHistory(q batchQueue, threads, ops, maxK int, seed uint64) []Op {
	rec := NewRecorder(threads, ops*maxK)
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			rng := xrand.New(seed*104729 + uint64(tid))
			toks := make([]Token, 0, maxK)
			vs := make([]int64, 0, maxK)
			dst := make([]int64, maxK)
			seq := 0
			for i := 0; i < ops; i++ {
				k := 2 + int(rng.Next()%uint64(maxK-1)) // batch width in [2, maxK]
				switch rng.Next() % 4 {
				case 0: // single enqueue
					v := int64(tid)<<32 | int64(seq)
					seq++
					tok := rec.BeginEnq(tid, v)
					q.Enqueue(tid, v)
					rec.EndEnq(tok)
				case 1: // single dequeue
					tok := rec.BeginDeq(tid)
					v, ok := q.Dequeue(tid)
					rec.EndDeq(tok, v, ok)
				case 2: // batch enqueue
					toks, vs = toks[:0], vs[:0]
					for j := 0; j < k; j++ {
						v := int64(tid)<<32 | int64(seq)
						seq++
						vs = append(vs, v)
						toks = append(toks, rec.BeginEnq(tid, v))
					}
					q.EnqueueBatch(tid, vs)
					for _, tok := range toks {
						rec.EndEnq(tok)
					}
				default: // batch dequeue
					toks = toks[:0]
					for j := 0; j < k; j++ {
						toks = append(toks, rec.BeginDeq(tid))
					}
					n := q.DequeueBatch(tid, dst[:k])
					for j, tok := range toks {
						if j < n {
							rec.EndDeq(tok, dst[j], true)
						} else {
							rec.EndDeq(tok, 0, false)
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	return rec.History()
}

// TestBatchHistoriesLinearizable is the lincheck coverage for the batch
// operations: concurrent histories mixing chained batch enqueues,
// multi-claim batch dequeues and singles must linearize against the
// single-FIFO specification on every core configuration whose batch code
// paths differ (slow chains, fast chains, patience-1 fallbacks that
// re-own block-allocated chains, hazard pointers).
func TestBatchHistoriesLinearizable(t *testing.T) {
	const threads, ops, maxK, rounds = 3, 6, 4, 10
	builders := map[string]func() batchQueue{
		"base": func() batchQueue {
			return core.New[int64](threads)
		},
		"fast": func() batchQueue {
			return core.New[int64](threads, core.WithFastPath(0))
		},
		"fast-patience1-arena": func() batchQueue {
			return core.New[int64](threads, core.WithFastPath(1))
		},
		"fast-hp": func() batchQueue {
			return core.NewHP[int64](threads, 0, 0, core.WithFastPath(0))
		},
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			for r := 0; r < rounds; r++ {
				hist := recordBatchHistory(build(), threads, ops, maxK, uint64(r)+1)
				var c Checker
				res, err := c.Check(hist)
				if err != nil {
					t.Fatal(err)
				}
				if res == NotLinearizable {
					t.Fatalf("round %d: batch history not linearizable:\n%v", r, hist)
				}
			}
		})
	}
}
