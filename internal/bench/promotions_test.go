package bench

import (
	"math"
	"testing"

	"multiclock/internal/core"
	"multiclock/internal/fault"
	"multiclock/internal/machine"
	"multiclock/internal/mem"
	"multiclock/internal/pagetable"
	"multiclock/internal/sim"
	"multiclock/internal/ycsb"
)

func TestPromotionTrackerCountsAndReaccess(t *testing.T) {
	mc := core.New(core.DefaultConfig())
	cfg := machine.DefaultConfig()
	cfg.Mem.DRAMNodes = []int{256}
	cfg.Mem.PMNodes = []int{1024}
	cfg.OpCost = 0
	cfg.CPUCachePages = 0
	m := machine.New(cfg, mc)
	pt := NewPromotionTracker(m, 20*sim.Second)
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
	pt := NewPromotionTracker(m, 20*sim.Second)
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

// TestPromotionTrackerMatchesReference holds the tracker's per-window
// slices against the map-and-series tracker it replaced
// (promotions_ref_test.go): both observe the same seeded YCSB runs, with
// and without fault injection and on a three-tier machine, and every
// answer must agree to the bit.
func TestPromotionTrackerMatchesReference(t *testing.T) {
	runs := []struct {
		name string
		rc   RunConfig
	}{
		{"multiclock", RunConfig{Policy: "multiclock"}},
		{"nimble", RunConfig{Policy: "nimble"}},
		{"multiclock/chaos", RunConfig{Policy: "multiclock", Chaos: fault.UniformRate(7, 0.02)}},
		{"nimble/chaos", RunConfig{Policy: "nimble", Chaos: fault.UniformRate(7, 0.02)}},
		{"multiclock/dram,cxl,pm", RunConfig{Policy: "multiclock", Tiers: "dram:256,cxl:512,pm:4096"}},
		{"nimble/dram,cxl,pm", RunConfig{Policy: "nimble", Tiers: "dram:256,cxl:512,pm:4096"}},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			rc := r.rc
			rc.Records, rc.DRAMPages, rc.PMPages = 4000, 384, 4096
			rc.Interval, rc.Seed = 2*sim.Millisecond, 5
			m, err := rc.Machine()
			if err != nil {
				t.Fatal(err)
			}
			const window = 5 * sim.Millisecond
			got, want := NewPromotionTracker(m, window), newRefPromotionTracker(window).Bind(m)
			m.Attach(got)
			m.Attach(want)
			_, client := rc.NewYCSB(m)
			client.Load()
			for _, w := range ycsb.PaperSequence {
				client.Run(w, 8000)
			}
			m.Policy.Stop()

			if len(want.Promotions()) < 4 || want.Demotions() == 0 {
				t.Fatalf("scenario too quiet to compare: %d windows, %d demotions",
					len(want.Promotions()), want.Demotions())
			}
			t.Logf("%d windows, %d promotions, %d demotions, %.1f %% re-accessed",
				len(want.Promotions()), want.TotalPromotions(), want.Demotions(), want.MeanReaccessPercent())
			sameBits(t, "Promotions", got.Promotions(), want.Promotions())
			sameBits(t, "ReaccessPercent", got.ReaccessPercent(), want.ReaccessPercent())
			sameBits(t, "MeanReaccessPercent", []float64{got.MeanReaccessPercent()}, []float64{want.MeanReaccessPercent()})
			if g, w := got.TotalPromotions(), want.TotalPromotions(); g != w {
				t.Errorf("TotalPromotions = %d, want %d", g, w)
			}
			if g, w := got.Demotions(), want.Demotions(); g != w {
				t.Errorf("Demotions = %d, want %d", g, w)
			}
		})
	}
	if pt := NewPromotionTracker(staticMachine(16, 16), 0); pt.Window != 20*sim.Second {
		t.Errorf("default window = %v, want the paper's 20 s", pt.Window)
	}
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d windows, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}
