package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// roundtripRequests covers every verb, boundary-length names and empty
// payloads; TestRequestRoundtrip and FuzzDecodeRequest's seeds share it.
var roundtripRequests = []Request{
	{Verb: VCreate, Name: "orders", Backend: "ring", Shards: 4, SegSize: 1024, MaxThreads: 256, MaxDepth: 1 << 20, MaxInflight: 4096},
	{Verb: VCreate, Name: strings.Repeat("n", 255), Backend: ""},
	{Verb: VClose, Name: "orders"},
	{Verb: VDelete, Name: "orders"},
	{Verb: VStats, Name: "orders"},
	{Verb: VEnq, Name: "q", Flags: FlagWait, DeadlineNs: 123456789, Payload: []byte("hello")},
	{Verb: VEnq, Name: "q", Payload: nil},
	{Verb: VDeq, Name: "q", WaitNs: -1},
	{Verb: VDeq, Name: "q", WaitNs: 5e9},
}

// garbageRequests are truncated and malformed request bodies;
// TestDecodeRejectsGarbage and FuzzDecodeRequest's seeds share them.
var garbageRequests = [][]byte{
	nil,
	{},
	{VEnq},               // no name
	{VEnq, 5, 'a'},       // name length overruns
	{VEnq, 1, 'q'},       // missing flags/deadline
	{VDeq, 1, 'q', 0, 0}, // short wait
	{VCreate, 1, 'q', 0}, // short config
	{99, 1, 'q'},         // unknown verb
}

// TestRequestRoundtrip pins encode→decode identity for every verb,
// including boundary-length names and empty payloads.
func TestRequestRoundtrip(t *testing.T) {
	for _, in := range roundtripRequests {
		b, err := in.EncodeRequest(nil)
		if err != nil {
			t.Fatalf("%+v: encode: %v", in, err)
		}
		out, err := DecodeRequest(b)
		if err != nil {
			t.Fatalf("%+v: decode: %v", in, err)
		}
		if out.Verb != in.Verb || out.Name != in.Name || out.Backend != in.Backend ||
			out.Shards != in.Shards || out.SegSize != in.SegSize ||
			out.MaxThreads != in.MaxThreads || out.MaxDepth != in.MaxDepth ||
			out.MaxInflight != in.MaxInflight || out.Flags != in.Flags ||
			out.DeadlineNs != in.DeadlineNs || out.WaitNs != in.WaitNs ||
			!bytes.Equal(out.Payload, in.Payload) {
			t.Fatalf("roundtrip mismatch:\n in %+v\nout %+v", in, out)
		}
	}
}

// roundtripResponses covers the response header and payload;
// TestResponseRoundtrip and FuzzDecodeResponse's seeds share it.
var roundtripResponses = []Response{
	{Status: StOK, Aux: 42, Payload: []byte("payload")},
	{Status: StEmpty},
	{Status: StErr, Payload: []byte("boom")},
}

// TestResponseRoundtrip covers the response header and payload.
func TestResponseRoundtrip(t *testing.T) {
	for _, in := range roundtripResponses {
		out, err := DecodeResponse(in.EncodeResponse(nil))
		if err != nil {
			t.Fatal(err)
		}
		if out.Status != in.Status || out.Aux != in.Aux || !bytes.Equal(out.Payload, in.Payload) {
			t.Fatalf("roundtrip mismatch: in %+v out %+v", in, out)
		}
	}
}

// TestDecodeRejectsGarbage: truncated and malformed frames error
// instead of panicking or misparsing.
func TestDecodeRejectsGarbage(t *testing.T) {
	for _, b := range garbageRequests {
		if _, err := DecodeRequest(b); err == nil {
			t.Fatalf("DecodeRequest(%v) accepted garbage", b)
		}
	}
	if _, err := DecodeResponse([]byte{StOK}); err == nil {
		t.Fatal("DecodeResponse accepted short frame")
	}
}

// TestFrameRoundtrip exercises the length-prefix framing, including
// zero-length bodies and the size guard.
func TestFrameRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	// The last body spans several readStep growth steps.
	bodies := [][]byte{{}, []byte("x"), bytes.Repeat([]byte("ab"), 1000), bytes.Repeat([]byte("xyz"), readStep+7)}
	for _, b := range bodies {
		if err := WriteFrame(&buf, b); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range bodies {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame mismatch: %q vs %q", got, want)
		}
	}
	// Oversized length prefix must be rejected before allocation.
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := ReadFrame(bytes.NewReader(huge)); err == nil {
		t.Fatal("ReadFrame accepted oversized length")
	}
}

// TestFrameInPlace: a frame built between BeginFrame and EndFrame in a
// reused buffer reads back through ReadFrameInto into another reused
// buffer, and EndFrame enforces MaxFrame.
func TestFrameInPlace(t *testing.T) {
	var wbuf, rbuf []byte
	for _, want := range [][]byte{[]byte("first"), {}, bytes.Repeat([]byte("q"), 3*minFrameBuf), []byte("last")} {
		wbuf = append(BeginFrame(wbuf), want...)
		if err := EndFrame(wbuf); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFrameInto(bytes.NewReader(wbuf), rbuf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame mismatch: %q vs %q", got, want)
		}
		rbuf = got
	}
	if cap(rbuf) < 3*minFrameBuf {
		t.Fatalf("read buffer storage not kept: cap %d", cap(rbuf))
	}
	if err := EndFrame(make([]byte, 4+MaxFrame+1)); err == nil {
		t.Fatal("EndFrame accepted an oversized body")
	}
}

// TestReadFrameBoundedMemory: a header claiming MaxFrame followed by 10
// body bytes and EOF must fail with io.ErrUnexpectedEOF having allocated
// in proportion to the bytes that arrived, not to the claimed length.
func TestReadFrameBoundedMemory(t *testing.T) {
	hdr := binary.BigEndian.AppendUint32(nil, MaxFrame)
	for _, read := range []struct {
		name string
		f    func(io.Reader) ([]byte, error)
	}{
		{"ReadFrame", ReadFrame},
		{"ReadFrameInto", func(r io.Reader) ([]byte, error) { return ReadFrameInto(r, make([]byte, 0, 64)) }},
	} {
		r := io.MultiReader(bytes.NewReader(hdr), bytes.NewReader(make([]byte, 10)))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := read.f(r)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%s: err = %v, want io.ErrUnexpectedEOF", read.name, err)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 256<<10 {
			t.Fatalf("%s: allocated %d bytes for a 10-byte body under a %d-byte header", read.name, d, MaxFrame)
		}
	}
}

// FuzzDecodeRequest decodes arbitrary bodies into a Request still
// holding an earlier frame's fields, and checks that the result matches
// a fresh decode (nothing stale survives), that accepted bodies
// re-encode to a body that decodes the same, and that ReadFrameInto over
// the same bytes never returns more than its input holds.
func FuzzDecodeRequest(f *testing.F) {
	for _, q := range roundtripRequests {
		b, err := q.EncodeRequest(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, b := range garbageRequests {
		f.Add(b)
	}
	stale := Request{Verb: VCreate, Name: "stale", Backend: "ring", Shards: 3, SegSize: 9,
		MaxThreads: 7, MaxDepth: 5, MaxInflight: 2, Flags: FlagWait, DeadlineNs: 11,
		Payload: []byte("stale payload"), WaitNs: 13}
	f.Fuzz(func(t *testing.T, b []byte) {
		want, wantErr := DecodeRequest(b)
		got := stale
		gotErr := got.Decode(b)
		if (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
			t.Fatalf("decode into a used Request differs from a fresh one:\n got %+v (%v)\nwant %+v (%v)", got, gotErr, want, wantErr)
		}
		if wantErr == nil {
			enc, err := want.EncodeRequest(nil)
			if err != nil {
				t.Fatalf("accepted %+v does not re-encode: %v", want, err)
			}
			again, err := DecodeRequest(enc)
			if err != nil || !reflect.DeepEqual(normPayload(again), normPayload(want)) {
				t.Fatalf("re-encode roundtrip: %+v (%v), want %+v", again, err, want)
			}
		}
		body, err := ReadFrameInto(bytes.NewReader(b), []byte("reused storage"))
		if err == nil && (len(b) < 4 || len(body) > len(b)-4 || !bytes.Equal(body, b[4:4+len(body)])) {
			t.Fatalf("ReadFrameInto returned %d bytes from a %d-byte input", len(body), len(b))
		}
	})
}

// FuzzDecodeResponse: the client's response decoder on arbitrary bytes.
// An accepted body re-encodes to exactly the same bytes and decodes to
// the same response; anything else is rejected with an error, never a
// panic.
func FuzzDecodeResponse(f *testing.F) {
	for _, p := range roundtripResponses {
		f.Add(p.EncodeResponse(nil))
	}
	f.Add([]byte(nil))
	f.Add([]byte{StOK})
	f.Add([]byte{StErr, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := DecodeResponse(b)
		if err != nil {
			if len(b) >= 9 {
				t.Fatalf("rejected a %d-byte body: %v", len(b), err)
			}
			return
		}
		enc := p.EncodeResponse(nil)
		if !bytes.Equal(enc, b) {
			t.Fatalf("accepted %x re-encodes to %x", b, enc)
		}
		again, err := DecodeResponse(enc)
		if err != nil || again.Status != p.Status || again.Aux != p.Aux || !bytes.Equal(again.Payload, p.Payload) {
			t.Fatalf("re-encode roundtrip: %+v (%v), want %+v", again, err, p)
		}
	})
}

// normPayload treats a nil and an empty Payload as equal: the encoding
// does not distinguish them.
func normPayload(q Request) Request {
	if len(q.Payload) == 0 {
		q.Payload = nil
	}
	return q
}
