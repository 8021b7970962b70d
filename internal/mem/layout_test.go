package mem

import (
	"testing"
	"unsafe"

	"multiclock/internal/sim"
)

// TestPageLayout pins the descriptor layout the CLOCK scan's speed rests on
// (ISSUE 13: on hotset-drift, 60 000 descriptors against a 2 MB L2, the scan
// was one serialised cache miss per page; with list order in a ring and all
// scan/AccessN state on one line, host_accesses_per_sec rose from 4.9–5.9 M
// to 9.0–9.7 M). A field added to Page must go after the hot line and come
// out of the trailing pad, or this fails.
func TestPageLayout(t *testing.T) {
	const line = 64
	if got := unsafe.Sizeof(Page{}); got != 2*line {
		t.Errorf("Sizeof(Page) = %d, want %d", got, 2*line)
	}
	var pg Page
	hot := []struct {
		name      string
		off, size uintptr
	}{
		{"Node", unsafe.Offsetof(pg.Node), unsafe.Sizeof(pg.Node)},
		{"Frame", unsafe.Offsetof(pg.Frame), unsafe.Sizeof(pg.Frame)},
		{"Flags", unsafe.Offsetof(pg.Flags), unsafe.Sizeof(pg.Flags)},
		{"Order", unsafe.Offsetof(pg.Order), unsafe.Sizeof(pg.Order)},
		{"Accessed", unsafe.Offsetof(pg.Accessed), unsafe.Sizeof(pg.Accessed)},
		{"HWDirty", unsafe.Offsetof(pg.HWDirty), unsafe.Sizeof(pg.HWDirty)},
		{"CacheHint", unsafe.Offsetof(pg.CacheHint), unsafe.Sizeof(pg.CacheHint)},
		{"Space", unsafe.Offsetof(pg.Space), unsafe.Sizeof(pg.Space)},
		{"list", unsafe.Offsetof(pg.list), unsafe.Sizeof(pg.list)},
		{"pos", unsafe.Offsetof(pg.pos), unsafe.Sizeof(pg.pos)},
	}
	for _, f := range hot {
		if f.off+f.size > line {
			t.Errorf("hot field %s ends at byte %d, past the first cache line", f.name, f.off+f.size)
		}
	}

	// Descriptors come from 1024 × 128 B slab chunks; cross a chunk
	// boundary so both the chunk base and the stride are checked.
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
