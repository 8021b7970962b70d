package bench

import (
	"strings"
	"testing"

	"multiclock/internal/machine"
	"multiclock/internal/pagetable"
	"multiclock/internal/policy"
	"multiclock/internal/sim"
)

func staticMachine(dram, pm int) *machine.Machine {
	cfg := machine.DefaultConfig()
	cfg.Mem.DRAMNodes = []int{dram}
	cfg.Mem.PMNodes = []int{pm}
	cfg.OpCost = 0
	cfg.CPUCachePages = 0
	return machine.New(cfg, policy.NewStatic())
}

// cell is the heatmap's count for sample row in window w, 0 outside it.
func (h *heatmap) cell(row, w int) int64 {
	if row < 0 || row >= len(h.counts) || w < 0 || w >= len(h.counts[row]) {
		return 0
	}
	return h.counts[row][w]
}

func TestHeatmapRecordsWindows(t *testing.T) {
	m := staticMachine(512, 512)
	as := m.NewSpace()
	v := as.Mmap(10, false, "x")
	h := newHeatmap(as.ID, []pagetable.VPN{v.Start, v.Start + 1}, 1*sim.Second)
	m.Attach(h)

	m.Access(as, v.Start, false)
	m.Access(as, v.Start, false)
	m.Access(as, v.Start+1, false)
	m.Access(as, v.Start+5, false) // unsampled
	m.Compute(1500 * sim.Millisecond)
	m.Access(as, v.Start, false)

	if h.cell(0, 0) != 2 || h.cell(1, 0) != 1 {
		t.Fatalf("window 0 counts: %d, %d", h.cell(0, 0), h.cell(1, 0))
	}
	if h.cell(0, 1) != 1 {
		t.Fatalf("window 1 count: %d", h.cell(0, 1))
	}
	if h.cell(5, 0) != 0 || h.cell(0, 99) != 0 {
		t.Fatal("out-of-range counts must be 0")
	}
	if h.windows() != 2 {
		t.Fatalf("windows = %d", h.windows())
	}
	out := h.render()
	if !strings.Contains(out, "2 sampled pages") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestHeatmapIgnoresOtherSpaces(t *testing.T) {
	m := staticMachine(512, 512)
	as1 := m.NewSpace()
	as2 := m.NewSpace()
	v1 := as1.Mmap(1, false, "a")
	v2 := as2.Mmap(1, false, "b")
	h := newHeatmap(as1.ID, []pagetable.VPN{v1.Start}, sim.Second)
	m.Attach(h)
	m.Access(as2, v2.Start, false) // may share the VPN value
	if h.cell(0, 0) != 0 {
		t.Fatal("foreign space counted")
	}
}

func TestHeatmapBadWindowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	newHeatmap(0, nil, 0)
}

func TestWindowFreqSeparatesClasses(t *testing.T) {
	m := staticMachine(2048, 2048)
	as := m.NewSpace()
	v := as.Mmap(20, false, "x")
	wf := newWindowFreq(1*sim.Second, 1*sim.Second)
	m.Attach(wf)

	// Pages 0-4: multi-access in observation windows AND heavily accessed
	// in performance windows. Pages 10-14: single-access in observation,
	// barely touched after.
	for pair := 0; pair < 5; pair++ {
		// Observation half.
		for rep := 0; rep < 3; rep++ {
			for i := 0; i < 5; i++ {
				m.Access(as, v.Start+pagetable.VPN(i), false)
			}
		}
		for i := 10; i < 15; i++ {
			m.Access(as, v.Start+pagetable.VPN(i), false)
		}
		m.Compute(1 * sim.Second)
		// Performance half.
		for rep := 0; rep < 10; rep++ {
			for i := 0; i < 5; i++ {
				m.Access(as, v.Start+pagetable.VPN(i), false)
			}
		}
		m.Access(as, v.Start+10, false)
		// Advance to the next pair boundary.
		next := (sim.Time(pair) + 1) * sim.Time(2*sim.Second)
		m.Clock.AdvanceTo(next)
	}
	res := wf.result()
	if res.MultiPages == 0 || res.SinglePages == 0 {
		t.Fatalf("classes empty: %+v", res)
	}
	if res.MultiMean <= res.SingleMean {
		t.Fatalf("multi-access pages must dominate: %+v", res)
	}
	if res.MultiMean < 5*res.SingleMean {
		t.Fatalf("expected a wide gap (paper's Fig. 2): %+v", res)
	}
}

func TestWindowFreqValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	newWindowFreq(0, sim.Second)
}

func TestRunPatternProducesClassedAccesses(t *testing.T) {
	m := staticMachine(2048, 2048)
	as := m.NewSpace()
	p := patterns[0]
	p.Pages = 100
	p.OpGap = 10 * sim.Microsecond
	vma := runPattern(m, as, p, 2*sim.Second, 1)
	if vma.Pages() != 100 {
		t.Fatal("population size")
	}
	if m.Ops < 1000 {
		t.Fatalf("pattern issued only %d ops", m.Ops)
	}
}

func TestRunPatternHeatmapShape(t *testing.T) {
	p := patterns[2] // xalan
	p.Pages = 100
	p.OpGap = 5 * sim.Microsecond
	// runPattern maps its own VMA: a short probe run learns where it
	// starts, then a fresh machine runs it with every page sampled.
	m := staticMachine(4096, 4096)
	vma := runPattern(m, m.NewSpace(), p, 100*sim.Millisecond, 1)
	var vpns []pagetable.VPN
	for i := 0; i < p.Pages; i++ {
		vpns = append(vpns, vma.Start+pagetable.VPN(i))
	}
	m2 := staticMachine(4096, 4096)
	as2 := m2.NewSpace()
	h := newHeatmap(as2.ID, vpns, 1*sim.Second)
	m2.Attach(h)
	runPattern(m2, as2, p, 10*sim.Second, 1)

	// DRAM-friendly rows (first 10%) must be consistently hotter than the
	// cold tail.
	hotTotal, coldTotal := int64(0), int64(0)
	for w := 0; w < h.windows(); w++ {
		for r := 0; r < 10; r++ {
			hotTotal += h.cell(r, w)
		}
		for r := 90; r < 100; r++ {
			coldTotal += h.cell(r, w)
		}
	}
	if hotTotal < 10*coldTotal {
		t.Fatalf("hot rows %d vs cold rows %d — class structure missing", hotTotal, coldTotal)
	}
}

func TestPatternPresets(t *testing.T) {
	if len(patterns) != 4 {
		t.Fatal("four presets expected (Fig. 1)")
	}
	for _, p := range patterns {
		if p.Pages <= 0 || p.DRAMFriendly+p.TierFriendly >= 1 {
			t.Fatalf("preset %s malformed", p.Name)
		}
	}
}

func TestRunPatternValidation(t *testing.T) {
	m := staticMachine(128, 128)
	as := m.NewSpace()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	runPattern(m, as, pattern{Name: "bad"}, sim.Second, 1)
}
