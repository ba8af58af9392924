// Command wfqspace reproduces the paper's Figure 10 space-overhead
// experiment with configurable scale: it measures mean live-heap bytes
// while the enqueue-dequeue-pairs workload runs over queues pre-filled to
// various sizes, and reports the WF/LF ratios.
//
// Usage:
//
//	wfqspace [-maxexp 6] [-threads 8] [-samples 9] [-repeats 1] [-csv]
//	wfqspace -ring [-segsize N] [-maxexp 6] [-threads 8] [-csv]
//
// -maxexp 7 matches the paper's 10^7 ceiling but needs several GiB.
//
// -ring switches to the ring backend's footprint probe: alongside the
// live-heap measurement it reports the ring's own segment accounting —
// per-segment bytes, the live chain's high-water mark and its bytes,
// and the allocate/reuse/recycle/drop counters. The chain is what the
// recycling protocol bounds; retired segments wait in a sync.Pool,
// which each sample's forced collection ages, so they show only in the
// live heap.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"wfq/internal/figures"
	"wfq/internal/harness"
)

func main() {
	maxExp := flag.Int("maxexp", 6, "largest initial size as a power of ten (paper: 7)")
	threads := flag.Int("threads", 8, "workload threads (paper: 8)")
	samples := flag.Int("samples", 9, "forced-GC live-heap samples per run (paper: 9)")
	intervalMs := flag.Int("interval", 5, "milliseconds between samples")
	repeats := flag.Int("repeats", 1, "averaged runs per cell (paper: 10)")
	csv := flag.Bool("csv", false, "emit CSV instead of an aligned table")
	ringMode := flag.Bool("ring", false, "probe the ring backend's segment footprint instead of Figure 10")
	segSize := flag.Int("segsize", 0, "ring slots per segment (0 = default; only with -ring)")
	flag.Parse()

	if *maxExp < 0 || *maxExp > 8 {
		fatal(fmt.Errorf("maxexp %d out of range [0,8]", *maxExp))
	}
	sizes := []int{1}
	for e := 1; e <= *maxExp; e++ {
		sizes = append(sizes, sizes[len(sizes)-1]*10)
	}
	if *ringMode {
		cfg := harness.SpaceConfig{
			Threads:  *threads,
			Samples:  *samples,
			Interval: time.Duration(*intervalMs) * time.Millisecond,
		}
		points, err := harness.RingSpaceSweep(sizes, cfg, *segSize)
		if err != nil {
			fatal(err)
		}
		printRing(points, *csv)
		return
	}
	p := figures.SpaceParams{
		Sizes:   sizes,
		Repeats: *repeats,
		Config: harness.SpaceConfig{
			Threads:  *threads,
			Samples:  *samples,
			Interval: time.Duration(*intervalMs) * time.Millisecond,
		},
	}
	tab, err := figures.Figure10(p)
	if err != nil {
		fatal(err)
	}
	if *csv {
		fmt.Print(tab.CSV())
	} else {
		fmt.Println(tab.String())
	}
}

// printRing renders the ring footprint probe. Live-heap is the external
// (GC) witness; the remaining columns are the ring's internal accounting
// of the same bound.
func printRing(points []harness.RingSpacePoint, csv bool) {
	if csv {
		fmt.Println("initial_size,live_heap_bytes,segment_bytes,max_live_segments,structure_bytes,allocated,reused,recycled,dropped,deq_burns,enq_retries")
		for _, p := range points {
			fmt.Printf("%d,%.0f,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
				p.InitialSize, p.LiveHeapBytes, p.SegmentBytes, p.MaxLiveSegments,
				p.StructureBytes, p.Stats.Allocated,
				p.Stats.Reused, p.Stats.Recycled, p.Stats.Dropped,
				p.Stats.DeqBurns, p.Stats.EnqRetries)
		}
		return
	}
	fmt.Printf("ring footprint (segment = %d slots, %d B; struct-B = max-live chain)\n",
		points[0].Stats.SegSize, points[0].SegmentBytes)
	fmt.Printf("%10s %14s %9s %12s %7s %7s %8s %8s %6s %8s\n",
		"size", "live-heap", "max-live", "struct-B", "alloc", "reused", "recycled", "dropped", "burns", "retries")
	for _, p := range points {
		fmt.Printf("%10d %14.0f %9d %12d %7d %7d %8d %8d %6d %8d\n",
			p.InitialSize, p.LiveHeapBytes, p.MaxLiveSegments, p.StructureBytes,
			p.Stats.Allocated, p.Stats.Reused,
			p.Stats.Recycled, p.Stats.Dropped, p.Stats.DeqBurns, p.Stats.EnqRetries)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wfqspace:", err)
	os.Exit(1)
}
