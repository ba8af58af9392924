package core

import (
	"testing"
	"unsafe"
)

// The hot per-thread records and the head/tail anchors are separated by
// sepBytes (two cache lines) to defeat the adjacent-cacheline prefetcher,
// which pulls 64-byte lines in 128-byte pairs and would otherwise keep
// false sharing alive across neighbouring entries. These compile-time
// assertions fail the build (constant array index out of range) if a
// field change silently alters a struct size.
var (
	_ = [1]struct{}{}[unsafe.Sizeof(paddedDesc[int64]{})-sepBytes]
	_ = [1]struct{}{}[unsafe.Sizeof(paddedCursor[int64]{})-sepBytes]
	_ = [1]struct{}{}[unsafe.Sizeof(descCacheSlot[int64]{})-sepBytes]
	_ = [1]struct{}{}[unsafe.Sizeof(paddedPtr[int64]{})-sepBytes]
	// metricCounters outgrew one separation unit when the batch and
	// descriptor-cache counters were added; it now occupies exactly two.
	_ = [1]struct{}{}[unsafe.Sizeof(metricCounters{})-2*sepBytes]
)

// TestPaddedStructSizes restates the compile-time assertions with
// readable failure messages, and additionally pins the head/tail field
// offsets inside Queue so the two anchors never share a prefetch pair.
func TestPaddedStructSizes(t *testing.T) {
	for _, tc := range []struct {
		name string
		size uintptr
		want uintptr
	}{
		{"paddedDesc", unsafe.Sizeof(paddedDesc[int64]{}), sepBytes},
		{"paddedCursor", unsafe.Sizeof(paddedCursor[int64]{}), sepBytes},
		{"descCacheSlot", unsafe.Sizeof(descCacheSlot[int64]{}), sepBytes},
		{"paddedPtr", unsafe.Sizeof(paddedPtr[int64]{}), sepBytes},
		{"metricCounters", unsafe.Sizeof(metricCounters{}), 2 * sepBytes},
	} {
		if tc.size != tc.want {
			t.Errorf("%s: size %d, want %d", tc.name, tc.size, tc.want)
		}
	}
	var q Queue[int64]
	headOff := unsafe.Offsetof(q.headRef)
	tailOff := unsafe.Offsetof(q.tailRef)
	if tailOff-headOff < sepBytes {
		t.Errorf("head/tail separation %d bytes, want >= %d", tailOff-headOff, sepBytes)
	}
	var hq HPQueue[int64]
	hpHeadOff := unsafe.Offsetof(hq.headRef)
	hpTailOff := unsafe.Offsetof(hq.tailRef)
	if hpTailOff-hpHeadOff < sepBytes {
		t.Errorf("HP head/tail separation %d bytes, want >= %d", hpTailOff-hpHeadOff, sepBytes)
	}
}
