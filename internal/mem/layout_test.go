package mem

import (
	"testing"
	"unsafe"

	"multiclock/internal/sim"
)

// TestPageLayout pins the descriptor layout the CLOCK scan's speed and the
// machine's host memory rest on: the descriptor is exactly one 64-byte line,
// 64-byte aligned, so a scan over more descriptors than the host's cache
// holds pays one miss per page (with list order in a ring and all scan and
// AccessN state on one line, hotset-drift went from 4.9–5.9 M to
// 9.0–9.7 M accesses/s), and on hotset-drift, where descriptors are most of
// the heap, the second line that held only policy scratch cost about 11 MiB
// of peak RSS. There is no room for another field: the last two bytes of
// padding hold the slab chunk that gives a descriptor its Side slot, and
// per-page state a policy needs goes into a Side it owns (DESIGN.md §8.1),
// not here.
func TestPageLayout(t *testing.T) {
	const line = 64
	if got := unsafe.Sizeof(Page{}); got != line {
		t.Errorf("Sizeof(Page) = %d, want %d", got, line)
	}
	var pg Page
	fields := []struct {
		name      string
		off, size uintptr
	}{
		{"Node", unsafe.Offsetof(pg.Node), unsafe.Sizeof(pg.Node)},
		{"Frame", unsafe.Offsetof(pg.Frame), unsafe.Sizeof(pg.Frame)},
		{"Flags", unsafe.Offsetof(pg.Flags), unsafe.Sizeof(pg.Flags)},
		{"Order", unsafe.Offsetof(pg.Order), unsafe.Sizeof(pg.Order)},
		{"Accessed", unsafe.Offsetof(pg.Accessed), unsafe.Sizeof(pg.Accessed)},
		{"HWDirty", unsafe.Offsetof(pg.HWDirty), unsafe.Sizeof(pg.HWDirty)},
		{"Hist", unsafe.Offsetof(pg.Hist), unsafe.Sizeof(pg.Hist)},
		{"slab", unsafe.Offsetof(pg.slab), unsafe.Sizeof(pg.slab)},
		{"CacheHint", unsafe.Offsetof(pg.CacheHint), unsafe.Sizeof(pg.CacheHint)},
		{"Space", unsafe.Offsetof(pg.Space), unsafe.Sizeof(pg.Space)},
		{"VA", unsafe.Offsetof(pg.VA), unsafe.Sizeof(pg.VA)},
		{"list", unsafe.Offsetof(pg.list), unsafe.Sizeof(pg.list)},
		{"pos", unsafe.Offsetof(pg.pos), unsafe.Sizeof(pg.pos)},
		{"Seq", unsafe.Offsetof(pg.Seq), unsafe.Sizeof(pg.Seq)},
		{"BornAt", unsafe.Offsetof(pg.BornAt), unsafe.Sizeof(pg.BornAt)},
	}
	var total uintptr
	for _, f := range fields {
		if f.off+f.size > line {
			t.Errorf("field %s ends at byte %d, past the cache line", f.name, f.off+f.size)
		}
		total += f.size
	}
	// Every field is listed: what the list does not cover is padding, and a
	// field added without an entry here shows up as a larger descriptor.
	if pad := unsafe.Sizeof(pg) - total; pad != 0 {
		t.Errorf("%d bytes of Page are unlisted fields or padding, want none", pad)
	}

	// Descriptors come from 1024 × 64 B slab chunks; cross a chunk boundary
	// so both the chunk base and the stride are checked.
	s := NewSystem(sim.NewClock(), Config{DRAMNodes: []int{2 * descChunk}, PMNodes: []int{64}})
	for i := 0; i < descChunk+8; i++ {
		pg := s.Alloc(s.BirthOrder())
		if pg == nil {
			t.Fatalf("Alloc %d failed", i)
		}
		if addr := uintptr(unsafe.Pointer(pg)); addr%line != 0 {
			t.Fatalf("descriptor %d at %#x is not %d-byte aligned", i, addr, line)
		}
	}
}
