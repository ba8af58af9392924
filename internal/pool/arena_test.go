package pool

import (
	"sync"
	"testing"
	"unsafe"
)

// TestArenaDistinctZeroed pins the element contract: every Get returns a
// distinct, zeroed slot (rule 2 of the ownership rules), and slots are
// never handed out twice (rule 3).
func TestArenaDistinctZeroed(t *testing.T) {
	const block = 16
	const n = 2*block + 3 // force block rollover
	var a Arena[int64]
	if b, g := a.Stats(); b != 0 || g != 0 {
		t.Fatalf("zero Arena Stats = %d/%d, want 0/0", b, g)
	}
	seen := make(map[*int64]bool, n)
	for i := 0; i < n; i++ {
		p, fresh := a.Get(block)
		if fresh != (i%block == 0) {
			t.Fatalf("Get %d: fresh = %v", i, fresh)
		}
		if *p != 0 {
			t.Fatalf("Get %d: slot not zeroed: %d", i, *p)
		}
		if seen[p] {
			t.Fatalf("Get %d: slot handed out twice", i)
		}
		seen[p] = true
		*p = int64(i) + 1 // dirty it; must not reappear zeroed or otherwise
	}
	blocks, gets := a.Stats()
	if gets != n {
		t.Fatalf("gets = %d, want %d", gets, n)
	}
	if blocks != 3 {
		t.Fatalf("blocks = %d, want 3", blocks)
	}
}

// TestArenaPerThreadIsolation runs concurrent owners, each with its own
// Arena; each thread's slots must be disjoint from every other's (rule 1
// makes Get unsynchronized, so overlap would be a data race as well as a
// logic bug). Run under -race by the tier-1 gate.
func TestArenaPerThreadIsolation(t *testing.T) {
	const threads, per = 4, 200
	arenas := make([]Arena[int64], threads)
	got := make([][]*int64, threads)
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				p, _ := arenas[tid].Get(16)
				*p = int64(tid)
				got[tid] = append(got[tid], p)
			}
		}(w)
	}
	wg.Wait()
	owner := make(map[*int64]int)
	for tid, ps := range got {
		for _, p := range ps {
			if prev, dup := owner[p]; dup {
				t.Fatalf("slot shared between threads %d and %d", prev, tid)
			}
			owner[p] = tid
			if *p != int64(tid) {
				t.Fatalf("thread %d slot overwritten to %d", tid, *p)
			}
		}
	}
}

// TestArenaReclaimSecondChance pins the sweep protocol: a Reclaim visit
// clears the mark of an arena used since the previous visit and keeps
// its block; a second visit with no Get in between drops the block, and
// the owner's next Get starts a fresh one.
func TestArenaReclaimSecondChance(t *testing.T) {
	var a Arena[int64]
	a.Reclaim() // no block yet: nothing to drop
	a.Get(4)
	a.Reclaim()
	if _, fresh := a.Get(4); fresh {
		t.Fatal("a block used since the last visit was dropped")
	}
	a.Reclaim()
	a.Reclaim()
	x, fresh := a.Get(4)
	if !fresh || *x != 0 {
		t.Fatal("an idle block survived two visits")
	}
	if blocks, gets := a.Stats(); blocks != 2 || gets != 3 {
		t.Fatalf("blocks/gets = %d/%d, want 2/3", blocks, gets)
	}
}

// TestArenaReclaimConcurrent races an owner's Gets against another
// thread's Reclaim visits: every element handed out must still be
// distinct and zeroed, whichever visits drop the owner's block. Run
// under -race by the tier-1 gate.
func TestArenaReclaimConcurrent(t *testing.T) {
	var a Arena[int64]
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				a.Reclaim()
			}
		}
	}()
	seen := make(map[*int64]bool)
	for i := 0; i < 5000; i++ {
		p, _ := a.Get(4)
		if *p != 0 || seen[p] {
			t.Fatalf("Get %d: slot reused or not zeroed", i)
		}
		seen[p] = true
		*p = 1
	}
	close(stop)
	wg.Wait()
}

// TestPoolWithArenaMissPath: a pool built with NewWithArena serves misses
// from consecutive slots of its thread's arena block instead of the
// callback (which must never run).
func TestPoolWithArenaMissPath(t *testing.T) {
	p := NewWithArena[int64](1, 4, 8)
	prev := p.Get(0)
	for i := 1; i < 8; i++ {
		v := p.Get(0)
		if *v != 0 {
			t.Fatalf("miss %d: non-zero arena slot %d", i, *v)
		}
		if uintptr(unsafe.Pointer(v))-uintptr(unsafe.Pointer(prev)) != unsafe.Sizeof(*v) {
			t.Fatalf("miss %d: slot not adjacent to the previous one in its block", i)
		}
		prev = v
	}
	if blocks, gets := p.lists[0].arena.Stats(); blocks != 1 || gets != 8 {
		t.Fatalf("arena blocks/gets = %d/%d, want 1/8", blocks, gets)
	}
	// Recycled slots now take priority over the arena.
	x := p.Get(0)
	p.Put(0, x)
	if got := p.Get(0); got != x {
		t.Fatal("pool ignored its recycled slot")
	}
}

// TestNewWithArenaBadBlockPanics pins the constructor contract.
func TestNewWithArenaBadBlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWithArena with a zero block did not panic")
		}
	}()
	NewWithArena[int64](1, 4, 0)
}
