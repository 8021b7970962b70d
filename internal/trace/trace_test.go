package trace

import (
	"strings"
	"testing"

	"multiclock/internal/core"
	"multiclock/internal/machine"
	"multiclock/internal/mem"
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

func TestHeatmapRecordsWindows(t *testing.T) {
	m := staticMachine(512, 512)
	as := m.NewSpace()
	v := as.Mmap(10, false, "x")
	vpns := []pagetable.VPN{v.Start, v.Start + 1}
	h := NewHeatmap(vpns, []int32{as.ID}, 1*sim.Second)
	m.Attach(h)

	m.Access(as, v.Start, false)
	m.Access(as, v.Start, false)
	m.Access(as, v.Start+1, false)
	m.Access(as, v.Start+5, false) // unsampled
	m.Compute(1500 * sim.Millisecond)
	m.Access(as, v.Start, false)

	if h.Count(0, 0) != 2 || h.Count(1, 0) != 1 {
		t.Fatalf("window 0 counts: %d, %d", h.Count(0, 0), h.Count(1, 0))
	}
	if h.Count(0, 1) != 1 {
		t.Fatalf("window 1 count: %d", h.Count(0, 1))
	}
	if h.Count(5, 0) != 0 || h.Count(0, 99) != 0 {
		t.Fatal("out-of-range counts must be 0")
	}
	if h.Windows() != 2 {
		t.Fatalf("windows = %d", h.Windows())
	}
	out := h.Render()
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
	h := NewHeatmap([]pagetable.VPN{v1.Start}, []int32{as1.ID}, sim.Second)
	m.Attach(h)
	m.Access(as2, v2.Start, false) // may share the VPN value
	if h.Count(0, 0) != 0 {
		t.Fatal("foreign space counted")
	}
}

func TestHeatmapBadWindowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewHeatmap(nil, nil, 0)
}

func TestPromotionTrackerCountsAndReaccess(t *testing.T) {
	mc := core.New(core.DefaultConfig())
	cfg := machine.DefaultConfig()
	cfg.Mem.DRAMNodes = []int{256}
	cfg.Mem.PMNodes = []int{1024}
	cfg.OpCost = 0
	cfg.CPUCachePages = 0
	m := machine.New(cfg, mc)
	pt := NewPromotionTracker(20 * sim.Second).Bind(m)
	m.Attach(pt)

	as := m.NewSpace()
	v := as.Mmap(500, false, "data")
	for i := 0; i < 500; i++ {
		m.Access(as, v.Start+pagetable.VPN(i), false)
	}
	var hot []pagetable.VPN
	as.WalkVMA(v, func(vpn pagetable.VPN, pg *mem.Page) {
		if len(hot) < 16 && m.Mem.Tier(pg) == mem.TierPM {
			hot = append(hot, vpn)
		}
	})
	for round := 0; round < 10; round++ {
		for _, vpn := range hot {
			m.Access(as, vpn, false)
		}
		m.Compute(1100 * sim.Millisecond)
	}
	if pt.TotalPromotions() == 0 {
		t.Fatal("tracker saw no promotions")
	}
	// The hot pages get re-accessed every round, so re-access % is high.
	if pct := pt.MeanReaccessPercent(); pct < 90 {
		t.Fatalf("re-access %% = %v, want ≥90 for always-hot pages", pct)
	}
	if len(pt.Promotions()) == 0 || len(pt.ReaccessPercent()) == 0 {
		t.Fatal("series empty")
	}
	if pt.Demotions() != m.Mem.Counters.Demotions {
		t.Fatalf("tracker demotions %d != counter %d", pt.Demotions(), m.Mem.Counters.Demotions)
	}
}

// TestPromotionTrackerIgnoresRebornDescriptor: a promoted page that is
// unmapped without ever being demoted leaves its pending entry behind, and
// its descriptor goes to the next birth. An access to that newborn is not a
// re-access of the promoted page (Fig. 9 counts pages, not descriptors).
func TestPromotionTrackerIgnoresRebornDescriptor(t *testing.T) {
	m := staticMachine(64, 256)
	pt := NewPromotionTracker(20 * sim.Second).Bind(m)
	m.Attach(pt)
	as := m.NewSpace()
	v := as.Mmap(2, false, "data")
	dram, pm := m.Mem.TierNodes(mem.TierDRAM)[0], m.Mem.TierNodes(mem.TierPM)[0]

	old := m.Access(as, v.Start, false)
	seq := old.Seq
	if !m.MigratePage(old, pm) || !m.MigratePage(old, dram) {
		t.Fatal("setup: migrations failed")
	}
	if pt.TotalPromotions() != 1 {
		t.Fatalf("tracker saw %d promotions, want 1", pt.TotalPromotions())
	}
	m.Unmap(as, v.Start)
	reborn := m.Access(as, v.Start+1, false)
	if reborn != old || reborn.Seq == seq {
		t.Fatal("setup: the newborn did not take over the dead page's descriptor")
	}
	m.Access(as, v.Start+1, false)
	if pct := pt.MeanReaccessPercent(); pct != 0 {
		t.Fatalf("re-access %% = %v: an access to the descriptor's next page counted for the promoted one", pct)
	}

	// The newborn's own promotion and re-access still count.
	if !m.MigratePage(reborn, pm) || !m.MigratePage(reborn, dram) {
		t.Fatal("setup: migrations failed")
	}
	m.Access(as, v.Start+1, false)
	if pct := pt.MeanReaccessPercent(); pct != 50 {
		t.Fatalf("re-access %% = %v, want 50 (one of two promoted pages re-accessed)", pct)
	}
}

func TestPromotionTrackerUnbound(t *testing.T) {
	pt := NewPromotionTracker(0)
	if pt.Window != 20*sim.Second {
		t.Fatal("default window")
	}
	pt.OnMigrate(&mem.Page{}, 0, 1, 0) // unbound: must not panic
	if pt.TotalPromotions() != 0 {
		t.Fatal("unbound tracker counted")
	}
	if pt.MeanReaccessPercent() != 0 {
		t.Fatal("empty mean")
	}
}

func TestWindowFreqSeparatesClasses(t *testing.T) {
	m := staticMachine(2048, 2048)
	as := m.NewSpace()
	v := as.Mmap(20, false, "x")
	wf := NewWindowFreq(1*sim.Second, 1*sim.Second)
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
	res := wf.Result()
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
	NewWindowFreq(0, sim.Second)
}

func TestMultiFansOut(t *testing.T) {
	m := staticMachine(128, 128)
	as := m.NewSpace()
	v := as.Mmap(1, false, "x")
	h1 := NewHeatmap([]pagetable.VPN{v.Start}, []int32{as.ID}, sim.Second)
	h2 := NewHeatmap([]pagetable.VPN{v.Start}, []int32{as.ID}, sim.Second)
	m.Attach(h1)
	m.Attach(h2)
	m.Access(as, v.Start, false)
	if h1.Count(0, 0) != 1 || h2.Count(0, 0) != 1 {
		t.Fatal("two attached heatmaps did not both see the access")
	}
}

func TestRunPatternProducesClassedAccesses(t *testing.T) {
	m := staticMachine(2048, 2048)
	as := m.NewSpace()
	p := PatternRUBiS
	p.Pages = 100
	p.OpGap = 10 * sim.Microsecond
	vma := RunPattern(m, as, p, 2*sim.Second, 1)
	if vma.Pages() != 100 {
		t.Fatal("population size")
	}
	if m.Ops < 1000 {
		t.Fatalf("pattern issued only %d ops", m.Ops)
	}
}

func TestRunPatternHeatmapShape(t *testing.T) {
	m := staticMachine(4096, 4096)
	as := m.NewSpace()
	p := PatternXalan
	p.Pages = 100
	p.OpGap = 5 * sim.Microsecond
	// Sample all pages.
	base := pagetable.VPN(1)
	_ = base
	var vpns []pagetable.VPN
	// RunPattern maps its own VMA; pre-compute by running once to learn
	// the VMA, then re-run with a fresh machine and matching sampling.
	vma := RunPattern(m, as, p, 100*sim.Millisecond, 1)
	m2 := staticMachine(4096, 4096)
	as2 := m2.NewSpace()
	for i := 0; i < p.Pages; i++ {
		vpns = append(vpns, vma.Start+pagetable.VPN(i))
	}
	h := NewHeatmap(vpns, []int32{as2.ID}, 1*sim.Second)
	m2.Attach(h)
	RunPattern(m2, as2, p, 10*sim.Second, 1)

	// DRAM-friendly rows (first 10%) must be consistently hotter than the
	// cold tail.
	hotTotal, coldTotal := int64(0), int64(0)
	for w := 0; w < h.Windows(); w++ {
		for r := 0; r < 10; r++ {
			hotTotal += h.Count(r, w)
		}
		for r := 90; r < 100; r++ {
			coldTotal += h.Count(r, w)
		}
	}
	if hotTotal < 10*coldTotal {
		t.Fatalf("hot rows %d vs cold rows %d — class structure missing", hotTotal, coldTotal)
	}
}

func TestPatternPresets(t *testing.T) {
	if len(Patterns) != 4 {
		t.Fatal("four presets expected (Fig. 1)")
	}
	for _, p := range Patterns {
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
	RunPattern(m, as, Pattern{Name: "bad"}, sim.Second, 1)
}
