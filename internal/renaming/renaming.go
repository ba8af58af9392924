// Package renaming implements a long-lived renaming namespace: threads
// with arbitrary identities acquire and release small virtual IDs from a
// bounded name space.
//
// §3.3 of the paper relaxes the assumption that threads have unique IDs in
// [0, NUM_THRDS) by letting threads "get and release (virtual) IDs from a
// small name space through one of the known long-lived wait-free renaming
// algorithms". The classic algorithms it cites (Afek–Merritt 2k-1
// renaming; Attiya–Fouren adaptive renaming) target a model without an
// upper bound on the name space. Here the queue itself fixes the name
// space size n up front, which admits a far simpler construction: an array
// of n test-and-set slots claimed by CAS.
//
// Progress: an Acquire performs at most one CAS per slot per pass, and a
// CAS on slot s fails only because a concurrent Acquire claimed s. With at
// most k ≤ n concurrent holders, a full pass over the array either claims
// a slot or witnesses n distinct concurrent claims; Acquire therefore
// completes within O(n) steps whenever the namespace is not exhausted by
// live holders — the bounded-concurrency wait-freedom the queue needs
// (NUM_THRDS is an upper bound on concurrent threads, §3.2 footnote 2).
// When more than n threads hold names simultaneously the semantics are
// exhaustion, reported as ok=false, never a blocked caller.
package renaming

import (
	"sync/atomic"
)

// Namespace is a bounded pool of virtual thread IDs [0, n).
type Namespace struct {
	taken []slot
	// hint rotates starting positions so uncontended acquires spread
	// across the array instead of all hammering slot 0.
	hint atomic.Uint64
}

type slot struct {
	v atomic.Int32
	_ [60]byte // pad to a cache line: slots are CAS targets
}

// New creates a namespace with capacity n names.
func New(n int) *Namespace {
	if n <= 0 {
		panic("renaming: capacity must be positive")
	}
	return &Namespace{taken: make([]slot, n)}
}

// Capacity reports the size of the name space.
func (ns *Namespace) Capacity() int { return len(ns.taken) }

// maxPasses bounds the number of full array scans one Acquire performs,
// keeping the operation wait-free (at most maxPasses·n slot operations).
const maxPasses = 8

// Acquire claims a free virtual ID. ok is false when maxPasses passes
// found no slot to claim — every slot held, or every CAS lost to
// churning concurrent claimants — and callers should treat it as
// backpressure. One pass that sees every slot held proves nothing: it
// observes the slots at different instants, so with fewer than n
// concurrent holders each slot can be held just when the pass looks at
// it. Acquire never blocks.
func (ns *Namespace) Acquire() (id int, ok bool) {
	n := len(ns.taken)
	start := int(ns.hint.Add(1)-1) % n
	for pass := 0; pass < maxPasses; pass++ {
		for i := 0; i < n; i++ {
			s := (start + i) % n
			if ns.taken[s].v.Load() == 0 && ns.taken[s].v.CompareAndSwap(0, 1) {
				return s, true
			}
		}
		start = 0
	}
	return -1, false
}

// Release returns id to the name space. Releasing an unheld or
// out-of-range id panics: that is a caller bug that would otherwise
// silently alias two threads onto one queue slot, the exact condition the
// namespace exists to prevent.
func (ns *Namespace) Release(id int) {
	if id < 0 || id >= len(ns.taken) {
		panic("renaming: Release of out-of-range id")
	}
	if !ns.taken[id].v.CompareAndSwap(1, 0) {
		panic("renaming: Release of unheld id")
	}
}

// Held reports whether id is currently claimed (racy snapshot; for tests
// and introspection).
func (ns *Namespace) Held(id int) bool {
	if id < 0 || id >= len(ns.taken) {
		return false
	}
	return ns.taken[id].v.Load() == 1
}

// InUse counts currently claimed names (racy snapshot).
func (ns *Namespace) InUse() int {
	c := 0
	for i := range ns.taken {
		if ns.taken[i].v.Load() == 1 {
			c++
		}
	}
	return c
}
