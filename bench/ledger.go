package main

import (
	"encoding/binary"
	"fmt"
)

// The ledger checks every run's outputs without storing the elements:
// each element carries its producer and sequence number, each consumer
// checks per-producer FIFO order as it receives, and at the end the
// multiset delivered is compared with the multiset admitted by count,
// sum and a 64-bit hash fingerprint. A loss, duplicate or corruption
// changes the count or (with probability 1 − 2⁻⁶⁴) the fingerprint; a
// reordering between two elements of one producer that one consumer
// receives is caught where it happens, by sequence id.
//
// Element value: (producer<<56 | seq) XOR a key drawn from the seed.

const (
	maxStreams = 4
	seqBits    = 56
	seqMask    = 1<<seqBits - 1
	maxNotes   = 16
)

// mix is the splitmix64 finalizer: a bijective 64-bit hash.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// tally is an order-free summary of a multiset of element ids.
type tally struct{ n, sum, fp uint64 }

func (t *tally) add(id uint64) {
	t.n++
	t.sum += id
	t.fp += mix(id)
}

// stream is one producer's side of the ledger; one goroutine owns it.
type stream struct {
	p, key uint64
	seq    uint64
	sent   tally // admitted elements
}

func newStream(p int, key uint64) *stream { return &stream{p: uint64(p), key: key} }

// next returns the value of the producer's next element.
func (s *stream) next() uint64 {
	id := s.p<<seqBits | s.seq
	s.seq++
	return id ^ s.key
}

// admitted records that the queue accepted v.
func (s *stream) admitted(v uint64) { s.sent.add(v ^ s.key) }

// payload is the 16-byte wire form of v: the value, then a tag that
// lets the consumer detect corrupted bytes.
func (s *stream) payload(dst []byte, v uint64) []byte {
	dst = binary.BigEndian.AppendUint64(dst[:0], v)
	return binary.BigEndian.AppendUint64(dst, mix(v^s.key^0x9e3779b97f4a7c15))
}

// sink is one consumer's side of the ledger; one goroutine owns it.
type sink struct {
	key   uint64
	last  [maxStreams]int64
	got   [maxStreams]tally
	bad   int64
	notes []string
}

func newSink(key uint64) *sink {
	s := &sink{key: key}
	for i := range s.last {
		s.last[i] = -1
	}
	return s
}

func (s *sink) fail(format string, args ...any) {
	s.bad++
	if len(s.notes) < maxNotes {
		s.notes = append(s.notes, fmt.Sprintf(format, args...))
	}
}

// take records one delivered value.
func (s *sink) take(v uint64) {
	id := v ^ s.key
	p, seq := id>>seqBits, int64(id&seqMask)
	if p >= maxStreams {
		s.fail("foreign value %#x", v)
		return
	}
	if seq <= s.last[p] {
		s.fail("producer %d seq %d delivered after seq %d (FIFO order or duplicate)", p, seq, s.last[p])
	} else {
		s.last[p] = seq
	}
	s.got[p].add(id)
}

// takePayload records one delivered wire payload.
func (s *sink) takePayload(b []byte) {
	if len(b) != 16 {
		s.fail("payload of %d bytes, want 16", len(b))
		return
	}
	v := binary.BigEndian.Uint64(b)
	if binary.BigEndian.Uint64(b[8:]) != mix(v^s.key^0x9e3779b97f4a7c15) {
		s.fail("payload of value %#x corrupted", v)
		return
	}
	s.take(v)
}

// verdict compares what the producers admitted with what the sinks
// received, after every goroutine has stopped and the queue is drained.
// It returns the number of violations and a description of the first
// few, by sequence id where one is known.
func verdict(streams []*stream, sinks []*sink) (int64, []string) {
	var bad int64
	var notes []string
	for _, k := range sinks {
		bad += k.bad
		notes = append(notes, k.notes...)
	}
	for _, st := range streams {
		var got tally
		for _, k := range sinks {
			g := k.got[st.p]
			got.n += g.n
			got.sum += g.sum
			got.fp += g.fp
		}
		want := st.sent
		switch {
		case got.n != want.n:
			d := int64(got.n) - int64(want.n)
			bad += max(d, -d)
			note := fmt.Sprintf("producer %d: admitted %d, delivered %d", st.p, want.n, got.n)
			if d == -1 {
				note += fmt.Sprintf(" (missing seq %d)", (want.sum-got.sum)&seqMask)
			}
			notes = append(notes, note)
		case got.fp != want.fp || got.sum != want.sum:
			bad++
			notes = append(notes, fmt.Sprintf("producer %d: %d delivered, but not the %d admitted", st.p, got.n, want.n))
		}
	}
	if len(notes) > maxNotes {
		notes = notes[:maxNotes]
	}
	return bad, notes
}
