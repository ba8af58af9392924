package ring

import (
	"sync"
	"testing"

	"wfq/internal/lincheck"
	"wfq/internal/xrand"
	"wfq/internal/yield"
)

// TestLinearizableHistories records genuinely concurrent runs against the
// ring queue and checks them against a single sequential FIFO. Small
// segments keep the boundary protocol — where the linearization argument
// is most delicate — inside nearly every recorded history.
func TestLinearizableHistories(t *testing.T) {
	for _, segSize := range []int{2, 8, 64} {
		for round := 0; round < 10; round++ {
			const workers = 4
			const ops = 30
			q := New[int64](workers, segSize)
			rec := lincheck.NewRecorder(workers, ops)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					rng := xrand.New(uint64(segSize*1000 + round*100 + tid))
					for i := 0; i < ops; i++ {
						if rng.Bool() {
							v := int64(tid)<<32 | int64(i)
							tok := rec.BeginEnq(tid, v)
							q.Enqueue(tid, v)
							rec.EndEnq(tok)
						} else {
							tok := rec.BeginDeq(tid)
							v, ok := q.Dequeue(tid)
							rec.EndDeq(tok, v, ok)
						}
					}
				}(w)
			}
			wg.Wait()
			var c lincheck.Checker
			res, err := c.Check(rec.History())
			if err != nil {
				t.Fatal(err)
			}
			if res == lincheck.NotLinearizable {
				t.Fatalf("segSize=%d round %d: not linearizable", segSize, round)
			}
		}
	}
}

// TestLinearizableBatchHistories mixes batch enqueues into the recorded
// histories: each batch element is recorded as its own enqueue spanning
// the batch call, which is sound because EnqueueBatch linearizes its
// elements in order within the call's interval. Histories are kept
// short: the checker's search grows with the orders of concurrent
// enqueues, and at 4 workers × 24 ops one unlucky schedule drove its
// memo to several GiB. Many short rounds cover the same protocol.
func TestLinearizableBatchHistories(t *testing.T) {
	for round := 0; round < 12; round++ {
		const workers = 3
		const ops = 6
		q := New[int64](workers, 8)
		rec := lincheck.NewRecorder(workers, ops)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(tid int) {
				defer wg.Done()
				rng := xrand.New(uint64(round*100 + tid + 555))
				for i := 0; i < ops; {
					switch rng.Next() % 3 {
					case 0:
						k := rng.Intn(3) + 1
						if i+k > ops {
							k = ops - i
						}
						vs := make([]int64, k)
						toks := make([]lincheck.Token, k)
						for j := range vs {
							vs[j] = int64(tid)<<32 | int64(i+j)
							toks[j] = rec.BeginEnq(tid, vs[j])
						}
						q.EnqueueBatch(tid, vs)
						for _, tok := range toks {
							rec.EndEnq(tok)
						}
						i += k
					case 1:
						v := int64(tid)<<32 | int64(i)
						tok := rec.BeginEnq(tid, v)
						q.Enqueue(tid, v)
						rec.EndEnq(tok)
						i++
					default:
						tok := rec.BeginDeq(tid)
						v, ok := q.Dequeue(tid)
						rec.EndDeq(tok, v, ok)
						i++
					}
				}
			}(w)
		}
		wg.Wait()
		var c lincheck.Checker
		res, err := c.Check(rec.History())
		if err != nil {
			t.Fatal(err)
		}
		if res != lincheck.Linearizable {
			t.Fatalf("round %d: %v", round, res)
		}
	}
}

// TestLinearizableHelpedHistories checks the property the helping slow
// path exists for: an operation COMPLETED BY A HELPER on behalf of a
// frozen thread must still linearize inside the frozen thread's own
// interval. Every round freezes one victim at RGHelpTicket — ticket
// public, reserve not yet attempted, the exact window helpers act in —
// while the other workers (patience 0, so they both help and go slow
// themselves) run a full mixed single/batch schedule over and past the
// frozen operation. The victim is released only after everyone else is
// done, so any value the helpers delivered out of the victim's pending
// operation was delivered strictly inside its Begin/End span. Histories
// are short for the same reason as in TestLinearizableBatchHistories;
// the Stats check below confirms each round still helped. At segSize 2
// at least one round must also recycle a retired segment, so the
// checker sees histories in which segments that carried helping
// tickets are reused.
func TestLinearizableHelpedHistories(t *testing.T) {
	for _, segSize := range []int{2, 8} {
		recycledRounds := 0
		for round := 0; round < 8; round++ {
			const workers = 3
			const ops = 8
			const victim = 0
			q := New[int64](workers, segSize, WithPatience(0))
			rec := lincheck.NewRecorder(workers, ops)

			// Freeze the victim at its (round%4+1)-th RGHelpTicket so the
			// frozen op varies: first op, mid-history, enqueue or dequeue.
			// The victim runs single ops only, and the queue starts with
			// prefill elements, so each of its first operations claims a
			// slot and publishes a ticket, even a dequeue.
			freezeAt := round%4 + 1
			const prefill = 4
			initial := make([]int64, prefill)
			for i := range initial {
				initial[i] = -int64(i + 1)
				q.Enqueue(1, initial[i])
			}
			base := q.Stats()
			parked := make(chan struct{})
			resume := make(chan struct{})
			hits := 0
			prev := yield.Set(func(p yield.Point, caller, owner int) {
				if p == yield.RGHelpTicket && caller == victim {
					hits++
					if hits == freezeAt {
						close(parked)
						<-resume
					}
				}
			})

			var victimWG, othersWG sync.WaitGroup
			run := func(tid int, wg *sync.WaitGroup) {
				defer wg.Done()
				rng := xrand.New(uint64(segSize*10000 + round*100 + tid + 77))
				for i := 0; i < ops; {
					kind := rng.Next() % 4
					if tid == victim && kind == 0 {
						// A batch starts on the fast path and publishes
						// no ticket; the victim's single ops each do.
						kind = 1
					}
					switch kind {
					case 0:
						k := rng.Intn(3) + 1
						if i+k > ops {
							k = ops - i
						}
						vs := make([]int64, k)
						toks := make([]lincheck.Token, k)
						for j := range vs {
							vs[j] = int64(tid)<<32 | int64(i+j)
							toks[j] = rec.BeginEnq(tid, vs[j])
						}
						q.EnqueueBatch(tid, vs)
						for _, tok := range toks {
							rec.EndEnq(tok)
						}
						i += k
					case 1, 2:
						v := int64(tid)<<32 | int64(i)
						tok := rec.BeginEnq(tid, v)
						q.Enqueue(tid, v)
						rec.EndEnq(tok)
						i++
					default:
						tok := rec.BeginDeq(tid)
						v, ok := q.Dequeue(tid)
						rec.EndDeq(tok, v, ok)
						i++
					}
				}
			}
			victimWG.Add(1)
			go run(victim, &victimWG)
			<-parked
			for w := 1; w < workers; w++ {
				othersWG.Add(1)
				go run(w, &othersWG)
			}
			othersWG.Wait()
			close(resume)
			victimWG.Wait()
			yield.Set(prev)

			var c lincheck.Checker
			res, err := c.CheckFrom(rec.History(), initial)
			if err != nil {
				t.Fatal(err)
			}
			if res != lincheck.Linearizable {
				t.Fatalf("segSize=%d round %d (freezeAt=%d): helped history %v",
					segSize, round, freezeAt, res)
			}
			st := q.Stats()
			if st.SlowEnqs == base.SlowEnqs || st.SlowDeqs == 0 {
				t.Fatalf("segSize=%d round %d: slow path never engaged: %+v", segSize, round, st)
			}
			if st.HelpFinalizes == 0 {
				t.Fatalf("segSize=%d round %d: no operation was finished by a helper: %+v", segSize, round, st)
			}
			if st.Recycled > 0 && st.SlowEnqs+st.SlowDeqs > 0 {
				recycledRounds++
			}
		}
		t.Logf("segSize=%d: %d of 8 rounds recycled a segment", segSize, recycledRounds)
		if segSize == 2 && recycledRounds == 0 {
			t.Fatalf("segSize=%d: no round recycled a segment", segSize)
		}
	}
}
