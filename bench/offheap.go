package main

import (
	"fmt"
	"syscall"
	"unsafe"
)

// mapped is memory the benchmark keeps for itself — latency samples and
// generated inputs — mapped outside the Go heap, so that heap_peak_mib
// and allocs_per_op measure the queue and not the instrument. Pages are
// touched lazily: a generous capacity costs only the pages written.
// Only pointer-free element types may live here; the collector never
// scans this memory.
type mapped[T int64 | uint64] struct {
	s   []T
	mem []byte
}

func mapSlice[T int64 | uint64](n int) (*mapped[T], error) {
	var zero T
	size := n * int(unsafe.Sizeof(zero))
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
	if err != nil {
		return nil, fmt.Errorf("map %d bytes off-heap: %w", size, err)
	}
	return &mapped[T]{s: unsafe.Slice((*T)(unsafe.Pointer(&mem[0])), n), mem: mem}, nil
}

// release unmaps the memory; the slice must not be used afterwards.
func (m *mapped[T]) release() {
	if m == nil || m.mem == nil {
		return
	}
	m.s = nil
	_ = syscall.Munmap(m.mem) // only fails for a bad range, which mapSlice never hands out
	m.mem = nil
}
