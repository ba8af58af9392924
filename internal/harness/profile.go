package harness

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Profile is a scheduler disturbance profile standing in for the paper's
// "system configurations" (CentOS / RedHat / Ubuntu machines, §4). The
// paper's finding is that OS scheduling policy changes the LF↔WF ranking;
// these profiles induce the same classes of interleaving differences on a
// single host: clean scheduling, aggressive preemption, and
// oversubscription with background load.
type Profile struct {
	// Name labels the profile in reports.
	Name string
	// GOMAXPROCS overrides the Go scheduler's processor count for the
	// duration of a run; 0 keeps the current setting.
	GOMAXPROCS int
	// YieldEvery makes each worker call runtime.Gosched after every
	// k-th queue operation, modelling a short scheduling quantum
	// (k=1 is maximal preemption churn); 0 disables.
	YieldEvery int
	// BackgroundLoad starts this many unrelated busy-spinning
	// goroutines for the duration of a run, modelling a loaded host.
	BackgroundLoad int
}

// Profiles returns the three standard profiles used by the figure
// reproductions, in the panel order (a), (b), (c) of Figures 7 and 8.
func Profiles() []Profile {
	return []Profile{
		{Name: "default"},
		{Name: "preempt", YieldEvery: 1},
		{Name: "oversub", BackgroundLoad: runtime.NumCPU()},
	}
}

// ProfileByName finds a standard profile. An unknown name's error lists
// every standard one.
func ProfileByName(name string) (Profile, error) {
	var names []string
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
		names = append(names, p.Name)
	}
	return Profile{}, fmt.Errorf("unknown profile %q (want one of %q)", name, names)
}

// apply activates the profile and returns a restore function. The restore
// function must be called exactly once, after the measured run finishes.
func (p Profile) apply() (restore func()) {
	prevProcs := 0
	if p.GOMAXPROCS > 0 {
		prevProcs = runtime.GOMAXPROCS(p.GOMAXPROCS)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < p.BackgroundLoad; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := uint64(1)
			for !stop.Load() {
				// Busy arithmetic with periodic yields so the
				// load shares the core instead of monopolizing
				// a P for a full quantum.
				for k := 0; k < 4096; k++ {
					x = x*6364136223846793005 + 1442695040888963407
				}
				runtime.Gosched()
			}
			sinkU64.Store(x)
		}()
	}
	return func() {
		stop.Store(true)
		wg.Wait()
		if p.GOMAXPROCS > 0 {
			runtime.GOMAXPROCS(prevProcs)
		}
	}
}

// sinkU64 defeats dead-code elimination of the background load. It is
// atomic because every background goroutine stores to it.
var sinkU64 atomic.Uint64
