// Package qsvc is the queue-service layer over the wfq facade: the
// piece that turns the library into a multi-tenant serving system. It
// provides
//
//   - a Registry of NAMED queues (create / lookup / delete), with
//     generation-keyed identities so a deleted-then-recreated name can
//     never be confused with its predecessor;
//   - a request ENVELOPE around any facade backend (core / fast /
//     sharded / ring) carrying the enqueue timestamp and, optionally, a
//     per-request deadline;
//   - a Tick-driven TIMEOUT SWEEP in the style of sigmaos's
//     Queue.TimeoutReqs (see SNIPPETS.md, snippet 1): expired requests
//     are completed with a deadline error off the hot path, and the
//     state-CAS conservation rule guarantees a swept request is never
//     also delivered;
//   - queue-delay OBSERVABILITY (GetQDelays-style): a log₂-bucketed
//     enqueue→dequeue latency histogram per queue;
//   - ADMISSION CONTROL: per-queue depth and inflight caps that reject
//     with the typed wfq.ErrAdmission backpressure error instead of
//     letting the queue grow without bound.
//
// The wait-free hot path is preserved: a request WITHOUT a deadline
// moves through the underlying queue as a by-value envelope — no
// completion handle, no timer, no allocation beyond what the backend
// itself does (asserted by TestNoDeadlinePathAllocParity). Only
// deadline-armed requests use a completion record and a slot in the
// deadline heap; Session.EnqueueWait re-arms its session's record, stamped
// with an incarnation sequence number, instead of allocating one per
// request.
//
// The TCP front end lives in internal/qsvc/server (protocol in
// internal/qsvc/wire, client in internal/qsvc/client); the load
// generator driving it is internal/qsvc/load.
package qsvc

import (
	"errors"
	"fmt"

	"wfq"
)

// Registry errors. Queue-level conditions reuse the facade's typed
// sentinels: wfq.ErrClosed (deleted or closed queues), wfq.ErrAdmission
// (cap rejections), wfq.ErrDeadlineExceeded (swept requests).
var (
	// ErrExists reports a Create of a name that is already registered.
	ErrExists = errors.New("qsvc: queue already exists")
	// ErrNotFound reports an operation on a name with no live queue.
	ErrNotFound = errors.New("qsvc: queue not found")
)

// DefaultMaxThreads is the per-queue concurrency bound used when a
// Config leaves MaxThreads zero: it sizes the backend's helping state
// and the session (handle) namespace.
const DefaultMaxThreads = 256

// Backend selects which facade engine a queue runs on.
type Backend uint8

const (
	// BackendFast is the fast-path/slow-path KP engine (WithFastPath) —
	// the default.
	BackendFast Backend = iota
	// BackendCore is the plain Opt12 KP engine.
	BackendCore
	// BackendRing is the ring-segment storage engine (WithRing).
	BackendRing
)

// String names the backend as the flag/wire layers spell it.
func (b Backend) String() string {
	switch b {
	case BackendCore:
		return "core"
	case BackendRing:
		return "ring"
	default:
		return "fast"
	}
}

// ParseBackend maps a flag/wire spelling onto a Backend plus an implied
// shard count (0 = unsharded). "sharded" and "sharded-ring" select four
// shards unless the Config overrides Shards explicitly.
func ParseBackend(s string) (Backend, int, error) {
	switch s {
	case "", "fast":
		return BackendFast, 0, nil
	case "core":
		return BackendCore, 0, nil
	case "ring":
		return BackendRing, 0, nil
	case "sharded":
		return BackendFast, 4, nil
	case "sharded-ring":
		return BackendRing, 4, nil
	default:
		return BackendFast, 0, fmt.Errorf("qsvc: unknown backend %q", s)
	}
}

// Config describes one named queue. The zero value is a usable default:
// fast-path backend, DefaultMaxThreads sessions, no caps.
type Config struct {
	// Backend selects the engine; Shards > 1 puts the ticket dispatcher
	// in front of it; SegSize tunes the ring segment size (0 default).
	Backend Backend
	Shards  int
	SegSize int
	// MaxThreads bounds concurrently operating sessions (0 selects
	// DefaultMaxThreads).
	MaxThreads int
	// MaxDepth caps the number of live (admitted, not yet delivered or
	// expired) requests in the queue; 0 means unlimited. An enqueue
	// that would exceed it fails with wfq.ErrAdmission.
	MaxDepth int
	// MaxInflight caps the number of deadline-armed requests pending at
	// once (the size of the timeout-sweep working set); 0 means
	// unlimited. An armed enqueue that would exceed it fails with
	// wfq.ErrAdmission.
	MaxInflight int
}

// options translates the Config into facade options.
func (c Config) options() []wfq.Option {
	var opts []wfq.Option
	switch c.Backend {
	case BackendRing:
		opts = append(opts, wfq.WithRing(c.SegSize))
	case BackendCore:
		// plain Opt12 default
	default:
		opts = append(opts, wfq.WithFastPath(0))
	}
	if c.Shards > 1 {
		opts = append(opts, wfq.WithShards(c.Shards))
	}
	return opts
}

// withDefaults normalizes zero fields.
func (c Config) withDefaults() Config {
	if c.MaxThreads <= 0 {
		c.MaxThreads = DefaultMaxThreads
	}
	return c
}
