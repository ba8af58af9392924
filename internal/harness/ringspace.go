package harness

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wfq/internal/memprobe"
	"wfq/internal/ring"
)

// RingSpacePoint is one row of the ring footprint probe: live-heap bytes
// measured the Figure 10 way, next to the ring's own structural
// accounting, so the bounded-memory claim can be checked against an
// external witness (the GC) and an internal one (segment counters).
type RingSpacePoint struct {
	InitialSize int
	// LiveHeapBytes is the mean post-GC live heap during the pairs
	// workload (memprobe methodology, same as Figure 10).
	LiveHeapBytes float64
	// SegmentBytes is the footprint of one segment (header + slot
	// array) at the configured segment size.
	SegmentBytes int64
	// MaxLiveSegments is the chain-length high-water mark observed at
	// the sample points; steady state should hold it at 1-2 regardless
	// of throughput.
	MaxLiveSegments int
	// StructureBytes is the live chain's high-water footprint,
	// MaxLiveSegments * SegmentBytes: the part the recycling protocol
	// bounds. Pooled segments are not in it; they are heap the GC can
	// take back (each LiveHeap sample collects, and a segment left in
	// the pool across two collections is freed), so LiveHeapBytes is
	// their witness.
	StructureBytes int64
	// Final recycling counters after the run.
	Stats ring.Stats
}

// RingSpaceSweep runs the Figure 10 pairs workload over ring queues
// pre-filled to the given sizes and reports heap occupancy alongside the
// ring's segment accounting. segSize <= 0 uses the ring default.
func RingSpaceSweep(sizes []int, cfg SpaceConfig, segSize int) ([]RingSpacePoint, error) {
	if cfg.Threads <= 0 || cfg.Samples <= 0 {
		return nil, fmt.Errorf("harness: bad space config %+v", cfg)
	}
	out := make([]RingSpacePoint, 0, len(sizes))
	for _, size := range sizes {
		p, err := ringSpaceRun(size, cfg, segSize)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

func ringSpaceRun(initialSize int, cfg SpaceConfig, segSize int) (RingSpacePoint, error) {
	if initialSize < 0 {
		return RingSpacePoint{}, fmt.Errorf("harness: negative initial size %d", initialSize)
	}
	q := ring.New[int64](cfg.Threads, segSize)
	for i := 0; i < initialSize; i++ {
		q.Enqueue(0, int64(i))
	}

	var stop atomic.Bool
	var gate sync.RWMutex // workers hold RLock per batch; sampler takes Lock
	var wg sync.WaitGroup
	for w := 0; w < cfg.Threads; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			i := int64(0)
			for !stop.Load() {
				gate.RLock()
				for k := 0; k < 64; k++ {
					q.Enqueue(tid, i)
					q.Dequeue(tid)
					i++
				}
				gate.RUnlock()
			}
		}(w)
	}
	heap := make([]uint64, 0, cfg.Samples)
	maxLive := 0
	for s := 0; s < cfg.Samples; s++ {
		if s > 0 {
			time.Sleep(cfg.Interval)
		}
		gate.Lock()
		heap = append(heap, memprobe.LiveHeap())
		if live := q.Stats().LiveSegments; live > maxLive {
			maxLive = live
		}
		gate.Unlock()
	}
	stop.Store(true)
	wg.Wait()

	st := q.Stats()
	runtime.KeepAlive(q)
	return RingSpacePoint{
		InitialSize:     initialSize,
		LiveHeapBytes:   memprobe.Mean(heap),
		SegmentBytes:    st.SegmentBytes,
		MaxLiveSegments: maxLive,
		StructureBytes:  int64(maxLive) * st.SegmentBytes,
		Stats:           st,
	}, nil
}
