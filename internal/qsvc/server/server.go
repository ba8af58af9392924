// Package server is the TCP front end of the queue-service layer: it
// owns a qsvc.Registry of named []byte queues, speaks the wire protocol
// (internal/qsvc/wire) over plain TCP, and runs the registry's timeout
// sweep on a ticker. cmd/wfqserve is a thin flag wrapper around it;
// tests and the load generator embed it in-process.
//
// Connection model: synchronous request/response, one outstanding
// request per connection. Each connection lazily leases one
// qsvc.Session per queue it touches and re-resolves the name against
// the registry per request — the generation key makes that re-resolve
// sound: if the name was deleted and recreated, the cached session's
// generation no longer matches and the handler replaces it instead of
// silently operating on the predecessor queue.
//
// Buffers: each connection reads through one bufio.Reader, so a small
// frame's header and body arrive in one read syscall, and keeps one read
// buffer, one response buffer and one decoded wire.Request across its
// requests. A response is encoded in place behind its length and sent
// with one Write. A buffer grown past 64 KiB by a large frame is dropped
// once that frame is served, so an idle connection never pins more than
// that.
//
// What a request allocates: the queue keeps an enqueued payload, so the
// server copies it out of the read buffer. A payload of at most
// maxCarved bytes is carved from a slabChunk-byte chunk the connection's
// session on that queue fills in order; the queue is FIFO, so a chunk is
// free once its last element is dequeued, and no other queue's elements
// can pin it. A larger payload is copied alone. An enqueue-and-wait
// re-arms its session's completion record (qsvc.Session.EnqueueWait),
// and a parked consumer sleeps on a reused wake channel, so a plain or
// armed request allocates nothing here beyond the amortized chunk; the
// engine's node and the client's copy of a dequeued payload are the
// allocations the queue semantics need.
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net"
	"sync"
	"time"

	"wfq"
	"wfq/internal/qsvc"
	"wfq/internal/qsvc/wire"
	"wfq/internal/tid"
)

// Options configures a Server. The zero value serves.
type Options struct {
	// MaxThreads is the per-queue session bound applied when a create
	// request leaves it zero (0 selects qsvc.DefaultMaxThreads). It
	// bounds concurrent connections operating on one queue.
	MaxThreads int
	// SweepInterval is the timeout-sweep tick period (default 1ms).
	SweepInterval time.Duration
}

// Server is a running queue service.
type Server struct {
	opts Options
	reg  *qsvc.Registry[[]byte]

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool

	// ctx is the server's base context; Shutdown cancels it to unpark
	// handlers blocked in a dequeue wait or an enqueue-and-wait, which
	// closing their TCP conn alone does not interrupt.
	ctx    context.Context
	cancel context.CancelFunc

	sweepDone chan struct{}
	wg        sync.WaitGroup
}

// New builds a server around a fresh registry.
func New(opts Options) *Server {
	if opts.SweepInterval <= 0 {
		opts.SweepInterval = time.Millisecond
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		opts:      opts,
		reg:       qsvc.NewRegistry[[]byte](),
		conns:     make(map[net.Conn]struct{}),
		ctx:       ctx,
		cancel:    cancel,
		sweepDone: make(chan struct{}),
	}
}

// Registry exposes the server's registry (tests, in-process embedding).
func (s *Server) Registry() *qsvc.Registry[[]byte] { return s.reg }

// Swept reports the total number of requests the sweep ticker has
// expired since the server started. A request is counted before its
// waiting handler is woken, so a client that has received the deadline
// error already sees it here.
func (s *Server) Swept() int64 { return s.reg.Swept() }

// Listen binds addr (host:port; ":0" picks a free port), starts the
// accept loop and the sweep ticker, and returns the bound address.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()

	s.wg.Add(2)
	go s.sweeper()
	go s.acceptLoop(ln)
	return ln.Addr(), nil
}

// Shutdown stops accepting, closes every live connection, cancels the
// base context so handlers parked in a blocking dequeue or an
// enqueue-and-wait unblock, and waits for the handlers and the sweeper
// to exit. Registered queues are left as they are (a process exit
// follows in practice).
func (s *Server) Shutdown() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.cancel()
	close(s.sweepDone)
	s.wg.Wait()
}

// sweeper drives the registry's timeout sweep: the Tick of the QMgr
// shape. Expiry latency is bounded by the interval plus one sweep.
func (s *Server) sweeper() {
	defer s.wg.Done()
	t := time.NewTicker(s.opts.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-s.sweepDone:
			return
		case now := <-t.C:
			s.reg.Tick(now)
		}
	}
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(c)
	}
}

// csess is one connection's lease on one queue, keyed by generation so
// a deleted-then-recreated name is detected and re-leased.
type csess struct {
	q *qsvc.Queue[[]byte]
	s *qsvc.Session[[]byte]
	// slab is the unused tail of the chunk payloads are carved from.
	slab []byte
}

const (
	// maxRetained caps the frame buffers a connection keeps between
	// requests; a larger one is dropped after its frame is served.
	maxRetained = 64 << 10
	// slabChunk is the size of the chunks small payloads are carved
	// from, and maxCarved the largest payload carved; a chunk's unused
	// tail is therefore under maxCarved bytes.
	slabChunk = 8 << 10
	maxCarved = 512
)

// copyPayload copies an enqueued payload out of the connection's read
// buffer. The copy's capacity ends at its length, so a consumer that
// appends to it reallocates instead of overwriting its neighbour.
func (cs *csess) copyPayload(p []byte) []byte {
	n := len(p)
	if n == 0 || n > maxCarved {
		return append([]byte(nil), p...)
	}
	if len(cs.slab) < n {
		cs.slab = make([]byte, slabChunk)
	}
	c := cs.slab[:n:n]
	copy(c, p)
	cs.slab = cs.slab[n:]
	return c
}

func (s *Server) handle(c net.Conn) {
	defer s.wg.Done()
	sessions := make(map[string]*csess)
	defer func() {
		for _, cs := range sessions {
			cs.s.Release()
		}
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
	}()

	br := bufio.NewReader(c)
	var (
		in, out []byte
		req     wire.Request
	)
	for {
		body, err := wire.ReadFrameInto(br, in)
		if err != nil {
			return // disconnect or protocol failure: drop the conn
		}
		var resp wire.Response
		if err := req.Decode(body); err != nil {
			resp = wire.Response{Status: wire.StErr, Payload: []byte(err.Error())}
		} else {
			resp = s.serve(sessions, &req)
		}
		out = resp.EncodeResponse(wire.BeginFrame(out))
		if err := wire.EndFrame(out); err != nil {
			return
		}
		if _, err := c.Write(out); err != nil {
			return
		}
		// One large frame must not pin its buffer on an idle connection
		// (req.Payload aliases it too).
		in, req.Payload = body, nil
		if cap(in) > maxRetained {
			in = nil
		}
		if cap(out) > maxRetained {
			out = nil
		}
	}
}

// session resolves the connection's lease on name, re-leasing when the
// registry's current generation moved past the cached one. On failure
// cs is nil and the returned Response is ready to send — it carries the
// error detail (e.g. tid exhaustion) rather than a bare status.
func (s *Server) session(sessions map[string]*csess, name string) (cs *csess, errResp wire.Response) {
	q, ok := s.reg.Get(name)
	if !ok {
		if cs, had := sessions[name]; had {
			cs.s.Release()
			delete(sessions, name)
		}
		return nil, wire.Response{Status: wire.StNotFound}
	}
	if cs, had := sessions[name]; had {
		if cs.q.Gen() == q.Gen() {
			return cs, wire.Response{}
		}
		cs.s.Release()
		delete(sessions, name)
	}
	sess, err := q.Session()
	if err != nil {
		// Session namespace exhausted (tid.ErrExhausted): surface the
		// message so clients can tell it apart from other StErr cases.
		return nil, wire.Response{Status: wire.StErr, Payload: []byte(err.Error())}
	}
	cs = &csess{q: q, s: sess}
	sessions[name] = cs
	return cs, wire.Response{}
}

// serve executes one decoded request.
func (s *Server) serve(sessions map[string]*csess, req *wire.Request) wire.Response {
	switch req.Verb {
	case wire.VCreate:
		backend, shards, err := qsvc.ParseBackend(req.Backend)
		if err != nil {
			return wire.Response{Status: wire.StErr, Payload: []byte(err.Error())}
		}
		if req.Shards > 0 {
			shards = int(req.Shards)
		}
		maxThreads := int(req.MaxThreads)
		if maxThreads == 0 {
			maxThreads = s.opts.MaxThreads
		}
		q, err := s.reg.Create(req.Name, qsvc.Config{
			Backend:     backend,
			Shards:      shards,
			SegSize:     int(req.SegSize),
			MaxThreads:  maxThreads,
			MaxDepth:    int(req.MaxDepth),
			MaxInflight: int(req.MaxInflight),
		})
		if errors.Is(err, qsvc.ErrExists) {
			return wire.Response{Status: wire.StExists}
		}
		if err != nil {
			return wire.Response{Status: wire.StErr, Payload: []byte(err.Error())}
		}
		return wire.Response{Status: wire.StOK, Aux: q.Gen()}

	case wire.VClose:
		err := s.reg.Close(req.Name)
		switch {
		case errors.Is(err, qsvc.ErrNotFound):
			return wire.Response{Status: wire.StNotFound}
		case errors.Is(err, wfq.ErrClosed):
			return wire.Response{Status: wire.StClosed}
		}
		return wire.Response{Status: wire.StOK}

	case wire.VDelete:
		if errors.Is(s.reg.Delete(req.Name), qsvc.ErrNotFound) {
			return wire.Response{Status: wire.StNotFound}
		}
		return wire.Response{Status: wire.StOK}

	case wire.VEnq:
		if req.Flags&wire.FlagWait != 0 && req.DeadlineNs <= 0 {
			// FlagWait's response means "delivered or expired"; without
			// a deadline nothing would ever complete the wait. The Go
			// client enforces this client-side — reject it for every
			// other wire client rather than silently degrading to
			// fire-and-forget with a success status.
			return wire.Response{Status: wire.StErr, Payload: []byte("wait requires a deadline")}
		}
		cs, errResp := s.session(sessions, req.Name)
		if cs == nil {
			return errResp
		}
		// Payload aliases the connection's read buffer, which the next
		// frame overwrites, but enqueue hands it to the queue — copy.
		payload := cs.copyPayload(req.Payload)
		deadline := time.Duration(req.DeadlineNs)
		if req.Flags&wire.FlagWait == 0 {
			if _, err := cs.s.Enqueue(payload, deadline); err != nil {
				return errResponse(err)
			}
			return wire.Response{Status: wire.StOK}
		}
		// Deferred completion: the sweep or a consumer decides.
		// Shutdown also unparks us — the request stays armed for the
		// registry to resolve, but this handler must exit.
		if err := cs.s.EnqueueWait(s.ctx, payload, deadline); err != nil {
			if s.ctx.Err() != nil && errors.Is(err, context.Canceled) {
				return wire.Response{Status: wire.StErr, Payload: []byte("server shutting down")}
			}
			return errResponse(err)
		}
		return wire.Response{Status: wire.StOK}

	case wire.VDeq:
		cs, errResp := s.session(sessions, req.Name)
		if cs == nil {
			return errResp
		}
		if req.WaitNs == 0 {
			if v, ok := cs.s.TryDequeue(); ok {
				return wire.Response{Status: wire.StOK, Payload: v}
			}
			if cs.q.Closed() {
				// Distinguish "empty now" from "closed and drained" the
				// same way the blocking path would. The probe can itself
				// dequeue: DequeueCtx returns an available element even
				// under an expired ctx, and an in-flight enqueue racing
				// Close may land between the empty TryDequeue above and
				// this probe — that element MUST be delivered, not
				// dropped (conservation).
				v, err := cs.s.DequeueCtx(closedProbeCtx)
				switch {
				case err == nil:
					return wire.Response{Status: wire.StOK, Payload: v}
				case errors.Is(err, wfq.ErrClosed):
					return wire.Response{Status: wire.StClosed}
				}
			}
			return wire.Response{Status: wire.StEmpty}
		}
		// Derive from the server context so Shutdown unparks a handler
		// blocked here even though its TCP conn is already closed.
		ctx := s.ctx
		if req.WaitNs > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, time.Duration(req.WaitNs))
			defer cancel()
		}
		v, err := cs.s.DequeueCtx(ctx)
		if err != nil {
			if errors.Is(err, wfq.ErrDeadlineExceeded) {
				return wire.Response{Status: wire.StEmpty} // wait timed out
			}
			return errResponse(err)
		}
		return wire.Response{Status: wire.StOK, Payload: v}

	case wire.VStats:
		q, ok := s.reg.Get(req.Name)
		if !ok {
			return wire.Response{Status: wire.StNotFound}
		}
		b, err := json.Marshal(q.Stats())
		if err != nil {
			return wire.Response{Status: wire.StErr, Payload: []byte(err.Error())}
		}
		return wire.Response{Status: wire.StOK, Payload: b}
	}
	return wire.Response{Status: wire.StErr, Payload: []byte("unknown verb")}
}

// closedProbeCtx is an already-expired context: DequeueCtx under it
// performs its bounded direct probes (which on a closed queue resolve
// drain-vs-element immediately) without ever parking. It is built once;
// a done context stays done.
var closedProbeCtx = func() context.Context {
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	cancel()
	return ctx
}()

// errResponse maps the typed qsvc/facade errors onto wire statuses.
func errResponse(err error) wire.Response {
	switch {
	case errors.Is(err, wfq.ErrAdmission):
		return wire.Response{Status: wire.StRejected}
	case errors.Is(err, wfq.ErrDeadlineExceeded):
		return wire.Response{Status: wire.StDeadline}
	case errors.Is(err, wfq.ErrClosed):
		return wire.Response{Status: wire.StClosed}
	case errors.Is(err, tid.ErrExhausted):
		return wire.Response{Status: wire.StErr, Payload: []byte(err.Error())}
	default:
		return wire.Response{Status: wire.StErr, Payload: []byte(err.Error())}
	}
}
