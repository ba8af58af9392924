package main

import (
	"fmt"
	"runtime"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// cpuSet is a Linux CPU affinity mask.
type cpuSet [16]uint64 // 1024 CPUs

// allowedCPUs lists the CPUs the calling thread may run on.
func allowedCPUs() ([]int, error) {
	var s cpuSet
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s))); e != 0 {
		return nil, fmt.Errorf("sched_getaffinity: %w", e)
	}
	var cpus []int
	for i := range len(s) * 64 {
		if s[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	if len(cpus) == 0 {
		return nil, fmt.Errorf("sched_getaffinity: no CPU allowed")
	}
	return cpus, nil
}

// pinThread restricts the calling OS thread to one CPU.
func pinThread(cpu int) error {
	var s cpuSet
	s[cpu/64] = 1 << (cpu % 64)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s))); e != 0 {
		return fmt.Errorf("sched_setaffinity cpu %d: %w", cpu, e)
	}
	return nil
}

// How set-up time is sampled: in setupRounds rounds setupGap apart, and
// in each round on each CPU for roundBudget, at least minPerRound and at
// most maxPerRound times. A library set-up takes a few microseconds and
// its times spread over a factor of ten, so its median needs about a
// thousand of them; a serving set-up takes about 200 µs and leaves two
// sockets in TIME_WAIT, so it gets about seventy. The rounds spread the
// sample over most of a second, because the speed of a CPU on the
// calibration host changes from one tenth of a second to the next.
const (
	setupRounds = 8
	setupGap    = 100 * time.Millisecond
	roundBudget = 3 * time.Millisecond
	minPerRound = 7
	maxPerRound = 126
)

// setupTimes is the set-up time on each CPU, in nanoseconds, sorted.
type setupTimes struct {
	cpus []int
	ns   [][]int64
}

// setUp times the workload's set-up on each CPU the process may run on,
// closing each set-up once timed, and returns the times and one more
// set-up, which the run measures.
//
// Set-up time is timed on every CPU in turn because on a virtual machine
// one CPU can run the same code up to half again as slow as another —
// when it shares a physical core with another guest's busy thread — and
// which one does changes over minutes. A run timed on whichever CPU its
// thread happened to get would read one of two levels at random.
func setUp(w workload, e *runEnv) (setupTimes, instance, error) {
	cpus, err := allowedCPUs()
	if err != nil {
		return setupTimes{}, nil, err
	}
	st := setupTimes{cpus: cpus}
	done := make(chan error)
	go func() {
		// The thread stays locked, so the runtime discards it, with its
		// affinity, when this goroutine ends; threads the runtime starts
		// meanwhile do not inherit the affinity of a locked thread.
		runtime.LockOSThread()
		done <- func() error {
			st.ns = make([][]int64, len(cpus))
			for r := 0; r < setupRounds; r++ {
				if r > 0 {
					time.Sleep(setupGap)
				}
				for i, cpu := range cpus {
					if err := pinThread(cpu); err != nil {
						return err
					}
					for k, start := 0, time.Now(); k < maxPerRound && (k < minPerRound || time.Since(start) < roundBudget); k++ {
						t0 := time.Now()
						in, err := w.setup(e)
						d := time.Since(t0)
						if err != nil {
							return fmt.Errorf("set up %s: %w", w.name, err)
						}
						in.close()
						st.ns[i] = append(st.ns[i], int64(d))
					}
				}
			}
			for _, ns := range st.ns {
				slices.Sort(ns)
			}
			return nil
		}()
	}()
	if err := <-done; err != nil {
		return setupTimes{}, nil, err
	}
	in, err := w.setup(e)
	if err != nil {
		return setupTimes{}, nil, fmt.Errorf("set up %s: %w", w.name, err)
	}
	return st, in, nil
}

// seconds is setup_s: the lowest of the CPUs' median set-up times, the
// set-up time on a CPU no other guest slows.
func (st setupTimes) seconds() float64 {
	best := int64(-1)
	for _, ns := range st.ns {
		if m := nearestRank(ns, 500); best < 0 || m < best {
			best = m
		}
	}
	return float64(best) / 1e9
}

// String describes the count and the median, p10 and p90 set-up time on
// each CPU.
func (st setupTimes) String() string {
	s := ""
	for i, ns := range st.ns {
		if i > 0 {
			s += "; "
		}
		q := func(permille int) float64 { return float64(nearestRank(ns, permille)) / 1e9 }
		s += fmt.Sprintf("cpu %d: %d set-ups, median %.3g s, p10 %.3g, p90 %.3g", st.cpus[i], len(ns), q(500), q(100), q(900))
	}
	return s
}
