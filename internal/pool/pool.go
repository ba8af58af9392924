// Package pool provides per-thread allocation machinery for the queue
// variants: free lists of recycled objects (Pool) and block-granularity
// bump allocation (Arena).
//
// In a C++ port of the paper the dequeued nodes would be handed to the
// allocator once hazard-pointer scans prove them unreachable (§3.4). Here
// they go into a Pool instead: each thread owns a private free list that
// only it reads and writes, so Get and Put are plain (non-atomic)
// operations with no contention. The hazard domain's recycle callback runs
// on the retiring thread, which is exactly the list owner, so ownership is
// never violated. A thread whose list is empty falls back to heap
// allocation through the New callback (or through its own Arena when
// built with NewWithArena), and lists are capped so a thread that mostly
// dequeues cannot hoard unbounded garbage.
//
// # Arena ownership rules
//
// An Arena is one thread's cursor into a private block of elements; it
// hands out pointers into the block, never reuses or reclaims an
// element, and takes a fresh block when the current one is used up. The
// rules its users must follow:
//
//  1. An Arena belongs to one thread, and only that thread may call its
//     Get — the cursor is unsynchronized by design. Reclaim, which only
//     ever drops the arena's reference to its block, is for any thread.
//  2. An element obtained from Get is exclusively owned by the caller
//     until the caller publishes it; it starts zeroed (fresh Go heap
//     memory) and the caller must initialize any field whose zero value
//     is not the wanted initial state (for queue nodes: deqTid, whose
//     "unclaimed" sentinel is -1, not 0).
//  3. Elements are never returned to the Arena. On the GC variant they
//     simply become garbage once unreachable — the whole block is freed
//     when every element in it is and the Arena has moved on to a later
//     block or dropped it; on the HP variant retired nodes go
//     back to the Pool free list, and the Arena only backs the pool's
//     miss path. This no-reuse discipline is what keeps pointer-equality
//     (ABA) reasoning on the GC variant trivial: an arena pointer is
//     unique for the life of the queue.
//  4. Adjacent elements of a block share cache lines. That is the point
//     (allocation locality, near-zero allocs/op) but it means an Arena
//     is for bulk node traffic, not for hot shared control words.
package pool

import (
	"sync/atomic"
	"unsafe"
)

// Pool is a set of per-thread free lists of *T.
type Pool[T any] struct {
	// New allocates a fresh object when the caller's free list is
	// empty. Must be non-nil.
	New func() *T
	// block, when positive, makes each thread's arena serve its
	// free-list misses instead of New: block allocation on the slow
	// path, reuse on the fast path.
	block int
	// cap limits each thread's list length; surplus Puts are dropped
	// (left to the garbage collector).
	cap   int
	lists []freeList[T]
	// counters for tests and the space-overhead experiment.
	hits, misses, drops []counter
}

type freeList[T any] struct {
	items []*T
	arena Arena[T]
	_     [64]byte
}

type counter struct {
	n int64
	_ [56]byte
}

// New creates a pool for nthreads threads with the given per-thread
// capacity (<=0 selects 1024) and allocation function.
func New[T any](nthreads, capacity int, alloc func() *T) *Pool[T] {
	if nthreads <= 0 {
		panic("pool: nthreads must be positive")
	}
	if alloc == nil {
		panic("pool: alloc must be non-nil")
	}
	if capacity <= 0 {
		capacity = 1024
	}
	return &Pool[T]{
		New:    alloc,
		cap:    capacity,
		lists:  make([]freeList[T], nthreads),
		hits:   make([]counter, nthreads),
		misses: make([]counter, nthreads),
		drops:  make([]counter, nthreads),
	}
}

// NewWithArena is New with the miss path served by a per-thread Arena
// of block elements instead of an alloc callback: a thread whose free
// list is empty bump-allocates from its arena block rather than making
// an individual heap allocation.
func NewWithArena[T any](nthreads, capacity, block int) *Pool[T] {
	if block <= 0 {
		panic("pool: block must be positive")
	}
	p := New[T](nthreads, capacity, func() *T { panic("pool: arena-backed pool must not call New") })
	p.block = block
	return p
}

// Get returns an object for thread tid: a recycled one when available,
// otherwise a fresh allocation. The caller must fully re-initialize the
// object before publishing it — recycled objects carry stale contents.
func (p *Pool[T]) Get(tid int) *T {
	l := &p.lists[tid]
	if n := len(l.items); n > 0 {
		x := l.items[n-1]
		l.items[n-1] = nil
		l.items = l.items[:n-1]
		p.hits[tid].n++
		return x
	}
	p.misses[tid].n++
	if p.block > 0 {
		x, _ := l.arena.Get(p.block)
		return x
	}
	return p.New()
}

// Put recycles x into thread tid's free list. Only call once the object
// is provably unreachable by other threads (i.e. from the hazard domain's
// recycle callback).
func (p *Pool[T]) Put(tid int, x *T) {
	l := &p.lists[tid]
	if len(l.items) >= p.cap {
		p.drops[tid].n++
		return
	}
	l.items = append(l.items, x)
}

// Stats sums (reuse hits, allocator misses, capacity drops) over threads.
func (p *Pool[T]) Stats() (hits, misses, drops int64) {
	for i := range p.lists {
		hits += p.hits[i].n
		misses += p.misses[i].n
		drops += p.drops[i].n
	}
	return
}

// Size reports the current length of tid's free list.
func (p *Pool[T]) Size(tid int) int { return len(p.lists[tid].items) }

// Arena is one thread's block ("segment") bump allocator: Get hands out
// the elements of a private block one at a time and allocates the next
// block when the current one is used up, so a thread makes one heap
// allocation per block instead of one per element. See the package
// comment for the ownership rules. The zero Arena is ready to use; it
// allocates nothing until its first Get.
type Arena[T any] struct {
	// base is the first element of the current block: nil before the
	// first Get and after Reclaim dropped the block. It is the arena's
	// only reference to the block, so a dropped block is garbage once
	// the elements handed out from it are.
	base atomic.Pointer[T]
	// next indexes the block's next free element (owner-only).
	next int
	// used is set by Get and cleared by Reclaim: a block survives one
	// Reclaim without Gets, not two.
	used atomic.Bool
	// blocks and gets count the allocation traffic (owner-written,
	// racily read by Stats).
	blocks, gets int64
}

// Get returns a zeroed *T from the current block of block elements,
// starting a new block, and reporting fresh, when the current one is
// used up or was dropped. Only the owning thread may call it (rule 1);
// the element is never reclaimed by the arena (rule 3). Every call on
// one Arena must pass the same block.
func (a *Arena[T]) Get(block int) (x *T, fresh bool) {
	b := a.base.Load()
	if b == nil || a.next == block {
		s := make([]T, block)
		b, a.next, fresh = &s[0], 0, true
		a.base.Store(b)
		a.blocks++
	}
	if !a.used.Load() {
		a.used.Store(true)
	}
	x = &unsafe.Slice(b, block)[a.next]
	a.next++
	a.gets++
	return x, fresh
}

// Reclaim is one visit of a second-chance sweep, and any thread may make
// it: it drops the current block of an arena whose owner made no Get
// since the previous visit, and otherwise clears the mark that Get sets.
// Dropping forfeits the block's unused elements; the owner's next Get
// starts a new block.
func (a *Arena[T]) Reclaim() {
	if a.used.Load() {
		a.used.Store(false)
	} else if b := a.base.Load(); b != nil {
		a.base.CompareAndSwap(b, nil)
	}
}

// Stats reports (blocks allocated, elements handed out). Racy snapshot,
// like every statistics reader in this repository.
func (a *Arena[T]) Stats() (blocks, gets int64) { return a.blocks, a.gets }
