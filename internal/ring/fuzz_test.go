package ring

import (
	"testing"

	"wfq/internal/model"
)

// decodeOp maps one fuzz byte to a (tid, isEnqueue) pair, mirroring the
// core package's fuzz decoding so corpora transfer between the fuzzers.
func decodeOp(b byte, nthreads int) (tid int, enq bool) {
	return int(b>>1) % nthreads, b&1 == 0
}

// fuzzConfigs are the helping configurations every fuzz input runs
// under: the lock-free baseline (no records), the default bounded
// patience (fast path with slow-path fallback), and patience 0 (every
// operation publishes a record, assigns a ticket, and walks the
// reserve/finalize/promote protocol). The sequential model is the
// oracle for all three.
var fuzzConfigs = []struct {
	name string
	opts []Option
}{
	{"lockfree", []Option{WithoutHelping()}},
	{"default", nil},
	{"patience0", []Option{WithPatience(0)}},
}

// FuzzRing feeds the same byte-decoded op sequence to ring queues of
// several segment sizes and helping configurations and to the
// sequential model in lockstep. Any divergence in values, emptiness,
// or lengths is a bug in the slot state machine, the boundary
// protocol, or the helping slow path; segSize 1 and 4 make the fuzzer
// cross boundaries on nearly every operation, and the patience-0
// configuration forces every operation through publish/ticket/
// reserve/finalize/promote (including the recycling of segments that
// carried tickets at every retirement).
func FuzzRing(f *testing.F) {
	f.Add([]byte{0x00, 0x02, 0x01, 0x03})                         // enq enq deq deq
	f.Add([]byte{0x01})                                           // deq on empty
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x01, 0x01}) // fill past a boundary
	f.Add([]byte{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09})
	// Regression seed for the helping slow path: alternating bursts that
	// drain to empty (doneDeqEmpty finalization), refill across segment
	// boundaries (ticketed segments recycled at segSize 1 and 4), and mix
	// tids so records cycle through all four slots of the record table.
	f.Add([]byte{
		0x00, 0x02, 0x04, 0x06, 0x01, 0x03, 0x05, 0x07, 0x01, 0x03,
		0x00, 0x00, 0x02, 0x02, 0x01, 0x01, 0x01, 0x01, 0x01, 0x07,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		const nthreads = 4
		for _, cfg := range fuzzConfigs {
			for _, segSize := range []int{1, 4, 64, 0} {
				q := New[int64](nthreads, segSize, cfg.opts...)
				var ref model.Queue
				for i, b := range data {
					tid, enq := decodeOp(b, nthreads)
					if enq {
						q.Enqueue(tid, int64(i))
						ref.Enqueue(int64(i))
					} else {
						v, ok := q.Dequeue(tid)
						rv, rok := ref.Dequeue()
						if ok != rok || v != rv {
							t.Fatalf("%s segSize=%d op %d (byte %#x): got (%d,%v), want (%d,%v)",
								cfg.name, segSize, i, b, v, ok, rv, rok)
						}
					}
					if q.Len() != ref.Len() {
						t.Fatalf("%s segSize=%d op %d: Len %d, want %d",
							cfg.name, segSize, i, q.Len(), ref.Len())
					}
				}
				for {
					v, ok := q.Dequeue(0)
					rv, rok := ref.Dequeue()
					if ok != rok || v != rv {
						t.Fatalf("%s segSize=%d drain: got (%d,%v), want (%d,%v)",
							cfg.name, segSize, v, ok, rv, rok)
					}
					if !ok {
						break
					}
				}
				if cfg.name == "patience0" && len(data) > 0 {
					if st := q.Stats(); st.SlowEnqs == 0 && st.SlowDeqs == 0 {
						t.Fatalf("patience0 segSize=%d: slow path never engaged on %d ops", segSize, len(data))
					}
				}
			}
		}
	})
}
