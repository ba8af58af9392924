package harness

import (
	"testing"
	"time"
)

// TestMeasureBlockingModes is a conservation smoke over all three modes
// for both lifecycle algorithms — tiny duration, the full pipeline.
func TestMeasureBlockingModes(t *testing.T) {
	cfg := BlockingConfig{
		Producers: 2, Consumers: 2,
		Duration: 100 * time.Millisecond, Interval: 5 * time.Millisecond, Burst: 4,
	}
	for _, alg := range []Algorithm{BlockingWF(), BlockingShardedWF()} {
		for _, mode := range []BlockingMode{BlockingProducersOnly, BlockingSpin, BlockingPark} {
			r, err := MeasureBlocking(alg, cfg, mode)
			if err != nil {
				t.Fatalf("%s/%s: %v", alg.Name, mode, err)
			}
			if r.Produced == 0 {
				t.Fatalf("%s/%s: produced nothing", alg.Name, mode)
			}
			if mode != BlockingProducersOnly && r.Delivered != r.Produced {
				t.Fatalf("%s/%s: delivered %d of %d", alg.Name, mode, r.Delivered, r.Produced)
			}
			if mode == BlockingPark && r.Samples == 0 {
				t.Fatalf("%s/%s: no latency samples", alg.Name, mode)
			}
		}
	}
}

// TestMeasureBlockingRequiresLifecycle: non-lifecycle algorithms are
// rejected up front, not at a nil-interface panic mid-run.
func TestMeasureBlockingRequiresLifecycle(t *testing.T) {
	alg, err := ByName("LF")
	if err != nil {
		t.Skip(err)
	}
	if _, err := MeasureBlocking(alg, BlockingConfig{}, BlockingPark); err == nil {
		t.Fatal("expected an error for a queue without Close/DequeueCtx")
	}
}
