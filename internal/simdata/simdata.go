// Package simdata provides typed arrays whose backing storage lives in
// simulated memory: every element read/write issues the page access a real
// program would, while the values themselves are held in ordinary Go slices
// (execution-driven simulation). Workloads like the GAPBS kernels build
// their data structures from these arrays.
package simdata

import (
	"fmt"
	"math/bits"
	"unsafe"

	"multiclock/internal/machine"
	"multiclock/internal/mem"
	"multiclock/internal/pagetable"
)

// Span is the address half of a simulated array: where its n elements live
// in an address space and which page each falls on. It charges accesses
// and holds no values, so a caller may keep them narrower on the host than
// the simulated layout (graph weights are int32 slots held as bytes).
type Span struct {
	m    *machine.Machine
	as   *pagetable.AddressSpace
	base pagetable.VPN
	// shift is log2 of the elements a page holds: element i lives on page
	// i>>shift of the span.
	shift uint
	n     int
}

// NewSpan reserves the pages of an n-element array of T in the address
// space (demand faulted), laid out as NewArray lays out an Array[T].
func NewSpan[T any](m *machine.Machine, as *pagetable.AddressSpace, name string, n int) Span {
	return newSpan[T](m, as, name, n, false)
}

func newSpan[T any](m *machine.Machine, as *pagetable.AddressSpace, name string, n int, huge bool) Span {
	if n <= 0 {
		panic("simdata: empty array")
	}
	var zero T
	size := int(unsafe.Sizeof(zero))
	if size == 0 || size > mem.PageSize || size&(size-1) != 0 {
		panic(fmt.Sprintf("simdata: element type %T is %d bytes; the size must be a power of two no larger than a page (%d)", zero, size, mem.PageSize))
	}
	s := Span{m: m, as: as, shift: uint(bits.TrailingZeros(uint(mem.PageSize / size))), n: n}
	var vma *pagetable.VMA
	if huge {
		vma = as.MmapHuge(s.Pages(), name)
	} else {
		vma = as.Mmap(s.Pages(), false, name)
	}
	s.base = vma.Start
	return s
}

// Len returns the element count.
func (s *Span) Len() int { return s.n }

// Pages returns the page footprint.
func (s *Span) Pages() int { return (s.n + 1<<s.shift - 1) >> s.shift }

// Touch charges the simulated access to element i.
func (s *Span) Touch(i int, write bool) {
	s.m.Access(s.as, s.base+pagetable.VPN(i>>s.shift), write)
}

// Array is a fixed-length vector of T in simulated memory: a Span and the
// values it lays out.
type Array[T any] struct {
	Span
	data []T
}

// NewArray allocates an n-element array in the address space, reserving the
// exact number of pages (demand faulted). T's size must be a power of two
// no larger than a page, so that elements never straddle a page.
func NewArray[T any](m *machine.Machine, as *pagetable.AddressSpace, name string, n int) *Array[T] {
	return &Array[T]{Span: newSpan[T](m, as, name, n, false), data: make([]T, n)}
}

// NewArrayHuge is NewArray with transparent-huge-page backing (the
// madvise(MADV_HUGEPAGE) a tuned graph framework would issue for its CSR).
func NewArrayHuge[T any](m *machine.Machine, as *pagetable.AddressSpace, name string, n int) *Array[T] {
	return &Array[T]{Span: newSpan[T](m, as, name, n, true), data: make([]T, n)}
}

// Get reads element i, charging the simulated access.
func (a *Array[T]) Get(i int) T {
	a.Touch(i, false)
	return a.data[i]
}

// Set writes element i, charging the simulated access.
func (a *Array[T]) Set(i int, v T) {
	a.Touch(i, true)
	a.data[i] = v
}

// Peek reads element i without a simulated access; for bookkeeping that a
// real program would keep in registers/cache (e.g. loop bounds just read).
func (a *Array[T]) Peek(i int) T { return a.data[i] }
