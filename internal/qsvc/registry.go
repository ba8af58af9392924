package qsvc

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is the multi-tenant name → queue map. The control plane
// (create / lookup / delete) is mutex-guarded — those are rare,
// administrative operations; every per-request operation happens on the
// *Queue handle itself and never touches this lock after lookup.
//
// Identity is generation-keyed: every Create stamps the queue with a
// registry-unique, strictly increasing generation. A caller holding a
// *Queue for a deleted name keeps a handle to the OLD generation — its
// operations fail with wfq.ErrClosed — and can never observe elements
// of, or publish elements into, the queue a recreated name designates.
type Registry[T any] struct {
	mu  sync.RWMutex
	qs  map[string]*Queue[T]
	gen uint64
	// swept counts the requests Tick has expired (see Swept).
	swept atomic.Int64
}

// NewRegistry builds an empty registry.
func NewRegistry[T any]() *Registry[T] {
	return &Registry[T]{qs: make(map[string]*Queue[T])}
}

// Create registers a new queue under name. It fails with ErrExists if
// the name is live (delete first; recreation gets a fresh generation).
func (r *Registry[T]) Create(name string, cfg Config) (*Queue[T], error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.qs[name]; ok {
		return nil, ErrExists
	}
	r.gen++
	q := newQueue[T](name, r.gen, cfg)
	r.qs[name] = q
	return q, nil
}

// Get looks up the live queue registered under name.
func (r *Registry[T]) Get(name string) (*Queue[T], bool) {
	r.mu.RLock()
	q, ok := r.qs[name]
	r.mu.RUnlock()
	return q, ok
}

// Close closes the named queue in place; see Queue.Close. The name
// stays registered (lookups still resolve, drains proceed, the sweep
// keeps running) until Delete.
func (r *Registry[T]) Close(name string) error {
	q, ok := r.Get(name)
	if !ok {
		return ErrNotFound
	}
	return q.Close()
}

// Delete unregisters name and tears the queue down: the underlying
// queue is closed (parked consumers wake, drain what is admitted, then
// observe wfq.ErrClosed), and every still-pending deadline-armed
// request is aborted with wfq.ErrClosed so no producer waits on a
// queue that will never be swept again.
func (r *Registry[T]) Delete(name string) error {
	r.mu.Lock()
	q, ok := r.qs[name]
	if ok {
		delete(r.qs, name)
	}
	r.mu.Unlock()
	if !ok {
		return ErrNotFound
	}
	q.close(true) // a prior Close makes this ErrClosed; the abort still runs
	return nil
}

// Names reports the live queue names, sorted.
func (r *Registry[T]) Names() []string {
	r.mu.RLock()
	names := make([]string, 0, len(r.qs))
	for n := range r.qs {
		names = append(names, n)
	}
	r.mu.RUnlock()
	sort.Strings(names)
	return names
}

// snapshot copies the live queue set out from under the lock so Tick
// and Stats never hold the registry lock across per-queue work.
func (r *Registry[T]) snapshot() []*Queue[T] {
	r.mu.RLock()
	qs := make([]*Queue[T], 0, len(r.qs))
	for _, q := range r.qs {
		qs = append(qs, q)
	}
	r.mu.RUnlock()
	return qs
}

// Tick runs one timeout sweep over every registered queue — the QMgr
// Tick of the sigmaos exemplar — and reports the total number of
// requests it expired. Drive it from a ticker goroutine (the server
// does, at its sweep interval); the hot paths never depend on it for
// progress, only armed-request expiry does.
func (r *Registry[T]) Tick(now time.Time) int {
	ns := now.UnixNano()
	expired := 0
	for _, q := range r.snapshot() {
		expired += q.sweep(ns, &r.swept)
	}
	return expired
}

// Swept reports the total number of requests Tick has expired. Each is
// counted before its producer is woken, so a producer that observed its
// expiry observes it counted here too.
func (r *Registry[T]) Swept() int64 { return r.swept.Load() }

// Stats snapshots every registered queue, ordered by name.
func (r *Registry[T]) Stats() []Stats {
	qs := r.snapshot()
	out := make([]Stats, 0, len(qs))
	for _, q := range qs {
		out = append(out, q.Stats())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
