package simdata

import (
	"strings"
	"testing"

	"multiclock/internal/machine"
	"multiclock/internal/mem"
	"multiclock/internal/sim"
)

type nullPolicy struct{ machine.Base }

func (nullPolicy) Name() string { return "null" }

func newM() *machine.Machine {
	cfg := machine.DefaultConfig()
	cfg.Mem.DRAMNodes = []int{512}
	cfg.Mem.PMNodes = []int{2048}
	cfg.OpCost = 0
	cfg.CPUCachePages = 0
	return machine.New(cfg, &nullPolicy{})
}

func TestArrayGetSet(t *testing.T) {
	m := newM()
	as := m.NewSpace()
	a := NewArray[int64](m, as, "a", 100)
	if a.Len() != 100 {
		t.Fatal("Len")
	}
	a.Set(5, 42)
	if a.Get(5) != 42 {
		t.Fatal("round trip")
	}
	if a.Get(6) != 0 {
		t.Fatal("zero value")
	}
}

func TestArrayPageFootprint(t *testing.T) {
	m := newM()
	as := m.NewSpace()
	// 1000 × 8 bytes = 8000 bytes = 2 pages.
	a := NewArray[int64](m, as, "a", 1000)
	if a.Pages() != 2 {
		t.Fatalf("Pages = %d, want 2", a.Pages())
	}
	// Elements 0..511 on page 1, 512.. on page 2.
	a.Set(0, 1)
	a.Set(511, 1)
	a.Set(512, 1)
	if as.Mapped() != 2 {
		t.Fatalf("mapped = %d, want 2", as.Mapped())
	}
}

func TestArrayChargesAccesses(t *testing.T) {
	m := newM()
	as := m.NewSpace()
	a := NewArray[int32](m, as, "a", 10)
	before := m.Mem.Counters.TotalAccesses()
	a.Set(0, 7)
	a.Get(0)
	if got := m.Mem.Counters.TotalAccesses() - before; got != 2 {
		t.Fatalf("accesses = %d, want 2", got)
	}
	if m.Mem.Counters.Writes[mem.TierDRAM] != 1 {
		t.Fatal("Set must be a write")
	}
}

func TestPeekIsFree(t *testing.T) {
	m := newM()
	as := m.NewSpace()
	a := NewArray[int32](m, as, "a", 10)
	a.Set(3, 9)
	before := m.Mem.Counters.TotalAccesses()
	now := m.Clock.Now()
	if a.Peek(3) != 9 {
		t.Fatal("peek")
	}
	if m.Mem.Counters.TotalAccesses() != before || m.Clock.Now() != now {
		t.Fatal("peek charged the simulation")
	}
}

func TestArrayValidation(t *testing.T) {
	m := newM()
	as := m.NewSpace()
	for _, f := range []func(){
		func() { NewArray[int32](m, as, "x", 0) },
		func() { NewArray[struct{}](m, as, "x", 10) },
		func() { NewArray[[8192]byte](m, as, "x", 10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			f()
		}()
	}
	_ = sim.Duration(0)
}

func TestHugeArray(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Mem.DRAMNodes = []int{2048}
	cfg.Mem.PMNodes = []int{2048}
	cfg.OpCost = 0
	cfg.CPUCachePages = 0
	m := machine.New(cfg, &nullPolicy{})
	as := m.NewSpace()
	a := NewArrayHuge[int64](m, as, "huge", 1000)
	a.Set(0, 42)
	a.Set(999, 7)
	if a.Get(0) != 42 || a.Get(999) != 7 {
		t.Fatal("round trip")
	}
	// The whole array (2 pages) faulted as one compound region.
	if m.Mem.Counters.MinorFaults != 1 {
		t.Fatalf("minor faults = %d, want 1 huge fault", m.Mem.Counters.MinorFaults)
	}
	if m.Mem.Nodes[0].UsedFrames() != 512 {
		t.Fatalf("frames used = %d, want one 512-frame block", m.Mem.Nodes[0].UsedFrames())
	}
}

// The page index is a shift, so an element size that is not a power of two
// is refused when the array is made, with a message that names the type.
func TestArrayRejectsNonPowerOfTwoElements(t *testing.T) {
	m := newM()
	as := m.NewSpace()
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "[3]uint8 is 3 bytes") || !strings.Contains(msg, "power of two") {
			t.Fatalf("panic %q, want one naming the 3-byte type and the power-of-two rule", msg)
		}
	}()
	NewArray[[3]byte](m, as, "x", 10)
}

// Every power-of-two size up to a page packs PageSize/size elements a page,
// in a Span as in an Array.
func TestArrayPagesPerElementSize(t *testing.T) {
	m := newM()
	as := m.NewSpace()
	span := NewSpan[int16](m, as, "s", 4097)
	for _, c := range []struct {
		pages int
		a     interface{ Pages() int }
	}{
		{1, NewArray[byte](m, as, "b", 4096)},
		{2, NewArray[byte](m, as, "b", 4097)},
		{2, NewArray[int16](m, as, "h", 4096)},
		{3, NewArray[[16]byte](m, as, "x", 513)},
		{5, NewArray[[4096]byte](m, as, "p", 5)},
		{3, &span},
	} {
		if got := c.a.Pages(); got != c.pages {
			t.Errorf("%T: %d pages, want %d", c.a, got, c.pages)
		}
	}
}
