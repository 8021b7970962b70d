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

// Array is a fixed-length vector of T in simulated memory.
type Array[T any] struct {
	m    *machine.Machine
	as   *pagetable.AddressSpace
	base pagetable.VPN
	// shift is log2 of the elements a page holds: element i lives on page
	// i>>shift of the array.
	shift uint
	data  []T
}

// NewArray allocates an n-element array in the address space, reserving the
// exact number of pages (demand faulted). T's size must be a power of two
// no larger than a page, so that elements never straddle a page.
func NewArray[T any](m *machine.Machine, as *pagetable.AddressSpace, name string, n int) *Array[T] {
	return newArray[T](m, as, name, n, false)
}

// NewArrayHuge is NewArray with transparent-huge-page backing (the
// madvise(MADV_HUGEPAGE) a tuned graph framework would issue for its CSR).
func NewArrayHuge[T any](m *machine.Machine, as *pagetable.AddressSpace, name string, n int) *Array[T] {
	return newArray[T](m, as, name, n, true)
}

func newArray[T any](m *machine.Machine, as *pagetable.AddressSpace, name string, n int, huge bool) *Array[T] {
	if n <= 0 {
		panic("simdata: empty array")
	}
	var zero T
	size := int(unsafe.Sizeof(zero))
	if size == 0 || size > mem.PageSize || size&(size-1) != 0 {
		panic(fmt.Sprintf("simdata: element type %T is %d bytes; the size must be a power of two no larger than a page (%d)", zero, size, mem.PageSize))
	}
	a := &Array[T]{
		m:     m,
		as:    as,
		shift: uint(bits.TrailingZeros(uint(mem.PageSize / size))),
		data:  make([]T, n),
	}
	npages := a.Pages()
	var vma *pagetable.VMA
	if huge {
		vma = as.MmapHuge(npages, name)
	} else {
		vma = as.Mmap(npages, false, name)
	}
	a.base = vma.Start
	return a
}

// Len returns the element count.
func (a *Array[T]) Len() int { return len(a.data) }

// Pages returns the page footprint.
func (a *Array[T]) Pages() int { return (len(a.data) + 1<<a.shift - 1) >> a.shift }

// Get reads element i, charging the simulated access.
func (a *Array[T]) Get(i int) T {
	a.m.Access(a.as, a.base+pagetable.VPN(i>>a.shift), false)
	return a.data[i]
}

// Set writes element i, charging the simulated access.
func (a *Array[T]) Set(i int, v T) {
	a.m.Access(a.as, a.base+pagetable.VPN(i>>a.shift), true)
	a.data[i] = v
}

// Peek reads element i without a simulated access; for bookkeeping that a
// real program would keep in registers/cache (e.g. loop bounds just read).
func (a *Array[T]) Peek(i int) T { return a.data[i] }

// Poke writes element i without a simulated access (initialization outside
// the measured region).
func (a *Array[T]) Poke(i int, v T) { a.data[i] = v }

// Fill sets every element with simulated writes (sequential touch).
func (a *Array[T]) Fill(v T) {
	for i := range a.data {
		a.Set(i, v)
	}
}
