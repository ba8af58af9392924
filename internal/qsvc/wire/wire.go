// Package wire is the length-prefixed binary protocol between wfqserve
// and its clients. A connection is synchronous request/response (the
// HTTP/1.1 shape: one outstanding request per connection; open more
// connections for more concurrency), which keeps both ends free of
// demultiplexing state and makes blocking verbs (a dequeue wait, an
// enqueue-and-wait) natural: the response simply arrives when the
// operation completes.
//
// Framing: every message is a 4-byte big-endian length followed by that
// many payload bytes. Requests begin with a verb byte and a
// length-prefixed queue name; responses begin with a status byte and a
// fixed 8-byte auxiliary word (the generation on create, zero
// elsewhere), then carry verb-specific payload.
//
// Frames are built in place: BeginFrame reserves the length in a reused
// buffer, the body is encoded after it, and EndFrame fills the length in,
// so a sender writes each frame with one Write and no per-frame
// allocation. ReadFrameInto reads a frame into a reused buffer; the body
// it returns, and every slice a decoder takes from that body (such as
// Request.Payload), aliases the buffer and is valid only until the next
// read into it. Decoded strings (Request.Name, Request.Backend) never
// alias it. ReadFrame, WriteFrame and DecodeRequest are one-shot
// wrappers over the same code that use fresh memory on every call.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// MaxFrame bounds a single message (16 MiB) so a corrupt length prefix
// cannot make a reader allocate unboundedly.
const MaxFrame = 16 << 20

// Request verbs.
const (
	VCreate byte = iota + 1 // name + config: register a queue
	VClose                  // name: close in place (drain continues)
	VDelete                 // name: unregister and tear down
	VEnq                    // name + flags + deadline + payload
	VDeq                    // name + wait: dequeue, optionally blocking
	VStats                  // name: JSON qsvc.Stats
)

// Enqueue flags.
const (
	// FlagWait defers the response until the request COMPLETES:
	// delivered to a consumer (StOK) or expired by the timeout sweep
	// (StDeadline). Requires a deadline so the wait is bounded.
	FlagWait byte = 1 << 0
)

// Response statuses.
const (
	StOK       byte = iota // success; payload per verb
	StEmpty                // dequeue: empty (or wait timed out)
	StNotFound             // no queue under that name
	StExists               // create: name already registered
	StRejected             // enqueue: admission cap (wfq.ErrAdmission)
	StDeadline             // enq-wait: request expired (wfq.ErrDeadlineExceeded)
	StClosed               // queue closed/deleted (wfq.ErrClosed)
	StErr                  // other failure; payload is the message
)

// Request is the decoded form of every request frame; unused fields are
// zero for verbs that do not carry them.
type Request struct {
	Verb byte
	Name string

	// VCreate configuration.
	Backend     string
	Shards      uint16
	SegSize     uint32
	MaxThreads  uint32
	MaxDepth    uint32
	MaxInflight uint32

	// VEnq.
	Flags      byte
	DeadlineNs int64
	Payload    []byte

	// VDeq: <0 block indefinitely, 0 non-blocking, >0 bounded wait.
	WaitNs int64
}

// Response is the decoded form of every response frame.
type Response struct {
	Status  byte
	Aux     uint64 // generation on create; zero elsewhere
	Payload []byte // dequeued bytes, stats JSON, or error message
}

// readStep bounds how many body bytes ReadFrameInto makes room for
// before they arrive, so a length prefix alone cannot make a reader
// allocate MaxFrame.
const readStep = 64 << 10

// minFrameBuf is the storage ReadFrameInto allocates when handed none:
// room for the header and a small request or response (a short queue
// name and a 16-byte payload) in one allocation.
const minFrameBuf = 64

// BeginFrame starts a frame in dst's storage: it returns dst[:0] with the
// 4-byte length reserved. Append the body to the result, then call
// EndFrame on the whole frame.
func BeginFrame(dst []byte) []byte {
	return append(dst[:0], 0, 0, 0, 0)
}

// EndFrame fills in the length of a frame started by BeginFrame; f is
// the reserved length followed by the body. It rejects bodies over
// MaxFrame.
func EndFrame(f []byte) error {
	n := len(f) - 4
	if n > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds max %d", n, MaxFrame)
	}
	binary.BigEndian.PutUint32(f, uint32(n))
	return nil
}

// WriteFrame writes one length-prefixed frame with a single Write.
func WriteFrame(w io.Writer, body []byte) error {
	f := append(BeginFrame(make([]byte, 0, 4+len(body))), body...)
	if err := EndFrame(f); err != nil {
		return err
	}
	_, err := w.Write(f)
	return err
}

// ReadFrame reads one length-prefixed frame into fresh memory.
func ReadFrame(r io.Reader) ([]byte, error) {
	return ReadFrameInto(r, nil)
}

// ReadFrameInto reads one length-prefixed frame, reusing buf's storage
// for both the header and the body. The returned body aliases that
// storage (or a larger one it grew into) and is valid until the next
// read into it; pass it back as buf to keep the storage. Storage grows
// only as body bytes arrive, each read asking for at most readStep more,
// so a header claiming MaxFrame costs nothing until the body follows.
func ReadFrameInto(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < 4 {
		buf = make([]byte, 0, minFrameBuf)
	}
	hdr := buf[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds max %d", n, MaxFrame)
	}
	body := buf[:0]
	for len(body) < n {
		k := len(body)
		step := min(n-k, readStep)
		body = slices.Grow(body, step)[:k+step]
		if _, err := io.ReadFull(r, body[k:]); err != nil {
			return nil, noEOF(err)
		}
	}
	return body, nil
}

// noEOF reports a body cut short by a clean EOF as io.ErrUnexpectedEOF:
// the header promised more bytes.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// ErrTruncated reports a frame too short for its verb's fixed fields.
var ErrTruncated = errors.New("wire: truncated message")

// appendStr8 appends a string with a one-byte length prefix (255 max).
func appendStr8(b []byte, s string) ([]byte, error) {
	if len(s) > 255 {
		return nil, fmt.Errorf("wire: string %q exceeds 255 bytes", s[:16]+"…")
	}
	b = append(b, byte(len(s)))
	return append(b, s...), nil
}

// takeStr8 splits a one-byte-length-prefixed string off the front,
// returning its bytes (aliasing b).
func takeStr8(b []byte) ([]byte, []byte, error) {
	if len(b) < 1 {
		return nil, nil, ErrTruncated
	}
	n := 1 + int(b[0])
	if len(b) < n {
		return nil, nil, ErrTruncated
	}
	return b[1:n], b[n:], nil
}

// EncodeRequest appends the request's frame body to dst.
func (q *Request) EncodeRequest(dst []byte) ([]byte, error) {
	dst = append(dst, q.Verb)
	dst, err := appendStr8(dst, q.Name)
	if err != nil {
		return nil, err
	}
	switch q.Verb {
	case VCreate:
		if dst, err = appendStr8(dst, q.Backend); err != nil {
			return nil, err
		}
		dst = binary.BigEndian.AppendUint16(dst, q.Shards)
		dst = binary.BigEndian.AppendUint32(dst, q.SegSize)
		dst = binary.BigEndian.AppendUint32(dst, q.MaxThreads)
		dst = binary.BigEndian.AppendUint32(dst, q.MaxDepth)
		dst = binary.BigEndian.AppendUint32(dst, q.MaxInflight)
	case VClose, VDelete, VStats:
		// name only
	case VEnq:
		dst = append(dst, q.Flags)
		dst = binary.BigEndian.AppendUint64(dst, uint64(q.DeadlineNs))
		dst = append(dst, q.Payload...)
	case VDeq:
		dst = binary.BigEndian.AppendUint64(dst, uint64(q.WaitNs))
	default:
		return nil, fmt.Errorf("wire: unknown verb %d", q.Verb)
	}
	return dst, nil
}

// DecodeRequest parses a request frame body. Payload aliases b.
func DecodeRequest(b []byte) (Request, error) {
	var q Request
	err := q.Decode(b)
	return q, err
}

// Decode parses a request frame body into q, overwriting every field.
// Payload aliases b; Name keeps q's existing string when the bytes match
// it, so decoding a connection's repeated queue name does not allocate.
func (q *Request) Decode(b []byte) error {
	name := q.Name
	*q = Request{}
	if len(b) < 1 {
		return ErrTruncated
	}
	q.Verb = b[0]
	nb, b, err := takeStr8(b[1:])
	if err != nil {
		return err
	}
	if string(nb) != name {
		name = string(nb)
	}
	q.Name = name
	switch q.Verb {
	case VCreate:
		var bb []byte
		if bb, b, err = takeStr8(b); err != nil {
			return err
		}
		q.Backend = string(bb)
		if len(b) < 2+4+4+4+4 {
			return ErrTruncated
		}
		q.Shards = binary.BigEndian.Uint16(b)
		q.SegSize = binary.BigEndian.Uint32(b[2:])
		q.MaxThreads = binary.BigEndian.Uint32(b[6:])
		q.MaxDepth = binary.BigEndian.Uint32(b[10:])
		q.MaxInflight = binary.BigEndian.Uint32(b[14:])
	case VClose, VDelete, VStats:
		// name only
	case VEnq:
		if len(b) < 1+8 {
			return ErrTruncated
		}
		q.Flags = b[0]
		q.DeadlineNs = int64(binary.BigEndian.Uint64(b[1:]))
		q.Payload = b[9:]
	case VDeq:
		if len(b) < 8 {
			return ErrTruncated
		}
		q.WaitNs = int64(binary.BigEndian.Uint64(b))
	default:
		return fmt.Errorf("wire: unknown verb %d", q.Verb)
	}
	return nil
}

// EncodeResponse appends the response's frame body to dst.
func (p *Response) EncodeResponse(dst []byte) []byte {
	dst = append(dst, p.Status)
	dst = binary.BigEndian.AppendUint64(dst, p.Aux)
	return append(dst, p.Payload...)
}

// DecodeResponse parses a response frame body.
func DecodeResponse(b []byte) (Response, error) {
	if len(b) < 1+8 {
		return Response{}, ErrTruncated
	}
	return Response{
		Status:  b[0],
		Aux:     binary.BigEndian.Uint64(b[1:]),
		Payload: b[9:],
	}, nil
}
