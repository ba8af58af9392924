// Package client is the Go client for wfqserve's wire protocol. A Conn
// is one TCP connection carrying synchronous request/response frames;
// it is safe for concurrent use (calls serialize on an internal mutex),
// but because the protocol is one-outstanding-request-per-connection, a
// blocking dequeue holds the lock for its whole wait — callers wanting
// parallelism open one Conn per worker, exactly as the load generator
// does.
//
// Status-to-error mapping restores the same typed sentinels the
// in-process API uses: StRejected → wfq.ErrAdmission, StDeadline →
// wfq.ErrDeadlineExceeded, StClosed → wfq.ErrClosed, StNotFound →
// qsvc.ErrNotFound, StExists → qsvc.ErrExists. errors.Is works across
// the wire.
package client

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"wfq"
	"wfq/internal/qsvc"
	"wfq/internal/qsvc/wire"
)

// Conn is a client connection to a queue server.
type Conn struct {
	mu   sync.Mutex
	c    net.Conn
	br   *bufio.Reader
	wbuf []byte // reused request frame
	rbuf []byte // reused response frame
}

// Dial connects to a queue server at addr.
func Dial(addr string) (*Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Conn{c: c, br: bufio.NewReader(c)}, nil
}

// Close tears down the connection.
func (c *Conn) Close() error { return c.c.Close() }

// roundTrip sends one request, built in place and written with one
// Write, and reads its response into the Conn's reused buffer. The
// caller must not retain resp.Payload past the next call on this Conn.
func (c *Conn) roundTrip(req *wire.Request) (wire.Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, err := req.EncodeRequest(wire.BeginFrame(c.wbuf))
	if err != nil {
		return wire.Response{}, err
	}
	c.wbuf = f
	if err := wire.EndFrame(f); err != nil {
		return wire.Response{}, err
	}
	if _, err := c.c.Write(f); err != nil {
		return wire.Response{}, err
	}
	frame, err := wire.ReadFrameInto(c.br, c.rbuf)
	if err != nil {
		return wire.Response{}, err
	}
	c.rbuf = frame
	return wire.DecodeResponse(frame)
}

// statusErr maps non-OK statuses onto the typed sentinels.
func statusErr(resp wire.Response) error {
	switch resp.Status {
	case wire.StOK:
		return nil
	case wire.StNotFound:
		return qsvc.ErrNotFound
	case wire.StExists:
		return qsvc.ErrExists
	case wire.StRejected:
		return wfq.ErrAdmission
	case wire.StDeadline:
		return wfq.ErrDeadlineExceeded
	case wire.StClosed:
		return wfq.ErrClosed
	default:
		return fmt.Errorf("wfqserve: %s", resp.Payload)
	}
}

// CreateOptions configures a remote queue. Zero values take server
// defaults; Backend accepts the qsvc.ParseBackend vocabulary
// ("fast", "core", "ring", "sharded", "sharded-ring", "").
type CreateOptions struct {
	Backend     string
	Shards      int
	SegSize     int
	MaxThreads  int
	MaxDepth    int
	MaxInflight int
}

// Create registers a queue and returns its generation.
func (c *Conn) Create(name string, opts CreateOptions) (uint64, error) {
	resp, err := c.roundTrip(&wire.Request{
		Verb:        wire.VCreate,
		Name:        name,
		Backend:     opts.Backend,
		Shards:      uint16(opts.Shards),
		SegSize:     uint32(opts.SegSize),
		MaxThreads:  uint32(opts.MaxThreads),
		MaxDepth:    uint32(opts.MaxDepth),
		MaxInflight: uint32(opts.MaxInflight),
	})
	if err != nil {
		return 0, err
	}
	return resp.Aux, statusErr(resp)
}

// CloseQueue closes the named queue in place: enqueues start failing,
// consumers drain the backlog, then see wfq.ErrClosed.
func (c *Conn) CloseQueue(name string) error {
	resp, err := c.roundTrip(&wire.Request{Verb: wire.VClose, Name: name})
	if err != nil {
		return err
	}
	return statusErr(resp)
}

// Delete unregisters the named queue and aborts its pending requests.
func (c *Conn) Delete(name string) error {
	resp, err := c.roundTrip(&wire.Request{Verb: wire.VDelete, Name: name})
	if err != nil {
		return err
	}
	return statusErr(resp)
}

// Enqueue submits payload, optionally with a deadline (0 = none).
// It returns as soon as the element is admitted.
func (c *Conn) Enqueue(name string, payload []byte, deadline time.Duration) error {
	resp, err := c.roundTrip(&wire.Request{
		Verb:       wire.VEnq,
		Name:       name,
		DeadlineNs: int64(deadline),
		Payload:    payload,
	})
	if err != nil {
		return err
	}
	return statusErr(resp)
}

// EnqueueWait submits payload and blocks until the request COMPLETES:
// nil when a consumer took delivery, wfq.ErrDeadlineExceeded when the
// timeout sweep expired it first, wfq.ErrClosed when the queue was
// deleted underneath it. deadline must be positive so the wait is
// bounded.
func (c *Conn) EnqueueWait(name string, payload []byte, deadline time.Duration) error {
	if deadline <= 0 {
		return fmt.Errorf("wfqserve: EnqueueWait requires a positive deadline")
	}
	resp, err := c.roundTrip(&wire.Request{
		Verb:       wire.VEnq,
		Name:       name,
		Flags:      wire.FlagWait,
		DeadlineNs: int64(deadline),
		Payload:    payload,
	})
	if err != nil {
		return err
	}
	return statusErr(resp)
}

// Dequeue takes one element. wait < 0 blocks until an element arrives
// or the queue closes; wait == 0 is non-blocking; wait > 0 bounds the
// wait. ok=false with a nil error means empty (or the wait timed out).
// The returned slice is owned by the caller.
func (c *Conn) Dequeue(name string, wait time.Duration) ([]byte, bool, error) {
	resp, err := c.roundTrip(&wire.Request{Verb: wire.VDeq, Name: name, WaitNs: int64(wait)})
	if err != nil {
		return nil, false, err
	}
	if resp.Status == wire.StEmpty {
		return nil, false, nil
	}
	if err := statusErr(resp); err != nil {
		return nil, false, err
	}
	return append([]byte(nil), resp.Payload...), true, nil
}

// Stats fetches the named queue's qsvc.Stats snapshot.
func (c *Conn) Stats(name string) (qsvc.Stats, error) {
	resp, err := c.roundTrip(&wire.Request{Verb: wire.VStats, Name: name})
	if err != nil {
		return qsvc.Stats{}, err
	}
	if err := statusErr(resp); err != nil {
		return qsvc.Stats{}, err
	}
	var st qsvc.Stats
	if err := json.Unmarshal(resp.Payload, &st); err != nil {
		return qsvc.Stats{}, err
	}
	return st, nil
}
