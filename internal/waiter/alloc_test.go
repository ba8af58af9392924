//go:build !race

// The race detector changes allocation counts, so this file builds only
// without it.

package waiter

import (
	"context"
	"runtime"
	"testing"
)

// TestParkWakeAllocs pins the parking path at zero allocations once
// warm: a register → park → notify → wake cycle reuses the waiter's wake
// channel from the free list and the parked list's backing array.
func TestParkWakeAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement")
	}
	var ec EventCount
	start := make(chan struct{})
	done := make(chan error)
	go func() {
		for range start {
			key := ec.Register()
			done <- ec.Wait(context.Background(), key, 0)
		}
	}()
	defer close(start)
	cycle := func() {
		start <- struct{}{}
		for parkedCount(&ec) == 0 {
			runtime.Gosched()
		}
		ec.Notify(1)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	if got := testing.AllocsPerRun(1000, cycle); got != 0 {
		t.Fatalf("park/wake cycle allocates %.2f/op, want 0", got)
	}
}
