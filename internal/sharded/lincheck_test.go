package sharded

import (
	"sync"
	"testing"

	"wfq/internal/core"
	"wfq/internal/lincheck"
	"wfq/internal/xrand"
)

// recordShardedHistory drives threads workers over q with a seeded random
// mix of single enqueues, single dequeues, and batch enqueues, tagging
// every recorded operation with the shard its dispatch ticket named.
// Batch elements are recorded as k individual enqueues whose intervals
// all span the batch call — semantically exact, since the batch IS k
// consecutive-ticket enqueues. Batch dequeues are not recorded: their
// compaction hides which tickets were burned, so per-element shards are
// unobservable; the fuzz differential covers them instead.
func recordShardedHistory(q *Queue[int64], threads, ops int, seed uint64) []lincheck.Op {
	nsh := uint64(q.Shards())
	rec := lincheck.NewRecorder(threads, 2*ops)
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			rng := xrand.New(seed*1_000_003 + uint64(tid))
			for i := 0; i < ops; i++ {
				switch rng.Next() % 4 {
				case 0, 1: // single enqueue
					v := int64(tid)<<32 | int64(i)
					tok := rec.BeginEnq(tid, v)
					ticket := q.EnqueueTicket(tid, v)
					rec.SetShard(tok, int(ticket%nsh))
					rec.EndEnq(tok)
				case 2: // single dequeue
					tok := rec.BeginDeq(tid)
					v, ok, ticket := q.DequeueTicket(tid)
					rec.SetShard(tok, int(ticket%nsh))
					rec.EndDeq(tok, v, ok)
				default: // batch enqueue of 2..4
					k := int(rng.Next()%3) + 2
					vs := make([]int64, k)
					toks := make([]lincheck.Token, k)
					for j := range vs {
						vs[j] = int64(tid)<<32 | int64(i)<<8 | int64(j) | 1<<62
						toks[j] = rec.BeginEnq(tid, vs[j])
					}
					first := q.EnqueueBatchTicket(tid, vs)
					for j := range vs {
						rec.SetShard(toks[j], int((first+uint64(j))%nsh))
						rec.EndEnq(toks[j])
					}
				}
			}
		}(w)
	}
	wg.Wait()
	return rec.History()
}

// TestShardedHistoriesLinearizable is the acceptance lincheck: genuinely
// concurrent histories from the 8-shard frontend at 8 threads (the
// issue's 8×8 configuration, run under -race by scripts/check.sh) must
// linearize against the bag-of-FIFOs specification — every per-shard
// subhistory FIFO-linearizable, with empty results judged against the
// claiming shard only. Both the fast-path GC build and a mixed
// fast/HP/plain shard set are covered.
func TestShardedHistoriesLinearizable(t *testing.T) {
	const threads, shards, ops, rounds = 8, 8, 10, 8
	builders := map[string]func() *Queue[int64]{
		"fast-uniform": func() *Queue[int64] {
			return newUniform[int64](threads, shards, core.WithFastPath(0))
		},
		"mixed": func() *Queue[int64] {
			sh := make([]Shard[int64], shards)
			for i := range sh {
				switch i % 3 {
				case 0:
					sh[i] = core.New[int64](threads, core.WithFastPath(0))
				case 1:
					sh[i] = core.NewHP[int64](threads, 0, 0)
				default:
					sh[i] = core.New[int64](threads, core.WithVariant(core.VariantOpt12))
				}
			}
			return New[int64](threads, sh)
		},
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			for r := 0; r < rounds; r++ {
				hist := recordShardedHistory(build(), threads, ops, uint64(r)+1)
				var c lincheck.Checker
				res, err := c.CheckSharded(hist)
				if err != nil {
					t.Fatal(err)
				}
				if res == lincheck.NotLinearizable {
					t.Fatalf("round %d: history not linearizable under the sharded spec:\n%v", r, hist)
				}
			}
		})
	}
}
