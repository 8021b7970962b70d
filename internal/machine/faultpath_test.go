package machine

// Machine-level failure-path coverage: MigratePage restoring pages on
// natural and injected failures, OOM-kill accounting, and the injector
// lifecycle.

import (
	"strings"
	"testing"

	"multiclock/internal/fault"
	"multiclock/internal/mem"
	"multiclock/internal/pagetable"
	"multiclock/internal/sim"
)

func testFaultMachine(dram, pm int, fcfg fault.Config) *Machine {
	cfg := DefaultConfig()
	cfg.Mem.DRAMNodes = []int{dram}
	cfg.Mem.PMNodes = []int{pm}
	cfg.OpCost = 0
	cfg.CPUCachePages = 0
	cfg.Faults = fcfg
	return New(cfg, &nullPolicy{})
}

// TestMigratePageDestinationFullRestoresPage: a migration whose
// destination node has no free frame must fail and return the page to its
// source LRU list — never leak it isolated.
func TestMigratePageDestinationFullRestoresPage(t *testing.T) {
	m := testMachine(16, 16)
	as := m.NewSpace()
	v := as.Mmap(1, false, "x")
	pg := m.Access(as, v.Start, false)
	if pg.Node != 0 {
		t.Fatalf("setup: page born on node %d", pg.Node)
	}

	// Exhaust the destination node down to zero free frames.
	var hold []*mem.Page
	for {
		p := m.Mem.AllocOn(1, true)
		if p == nil {
			break
		}
		hold = append(hold, p)
	}
	failsBefore := m.Mem.Counters.MigrateFails
	if m.MigratePage(pg, 1) {
		t.Fatal("migration into a full node succeeded")
	}
	if m.Mem.Counters.MigrateFails != failsBefore+1 {
		t.Fatalf("MigrateFails = %d, want %d", m.Mem.Counters.MigrateFails, failsBefore+1)
	}
	if pg.Node != 0 || !pg.OnList() || pg.Flags.Has(mem.FlagIsolated) {
		t.Fatalf("page not restored to its source list: node=%d onList=%v flags=%v",
			pg.Node, pg.OnList(), pg.Flags)
	}
	// KindOf panics if the flags disagree with list membership.
	_ = m.Vecs[0].KindOf(pg)

	for _, p := range hold {
		m.Mem.Free(p)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestMigratePageInjectedPinnedRestoresPage is the injected-fault twin:
// rate-1.0 pinned-page injection fails the migration with the destination
// wide open, and the page must land back on its source list.
func TestMigratePageInjectedPinnedRestoresPage(t *testing.T) {
	fcfg := fault.Config{Seed: 9}
	fcfg.Rates[fault.MigratePinned] = 1.0
	m := testFaultMachine(16, 16, fcfg)
	as := m.NewSpace()
	v := as.Mmap(1, false, "x")
	pg := m.Access(as, v.Start, false)

	if m.MigratePage(pg, 1) {
		t.Fatal("migration succeeded under rate-1.0 pinned injection")
	}
	if pg.Node != 0 || !pg.OnList() || pg.Flags.Has(mem.FlagIsolated) {
		t.Fatalf("page not restored: node=%d onList=%v flags=%v", pg.Node, pg.OnList(), pg.Flags)
	}
	if m.Faults.Counters.Injected[fault.MigratePinned] != 1 {
		t.Fatalf("injector counted %d", m.Faults.Counters.Injected[fault.MigratePinned])
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestInjectorLifecycle: a zero config builds no injector; an enabled one
// builds an injector shared with the memory system.
func TestInjectorLifecycle(t *testing.T) {
	if m := testMachine(8, 8); m.Faults != nil || m.Mem.Faults != nil {
		t.Fatal("fault-free machine built an injector")
	}
	fcfg := fault.Config{Seed: 1}
	fcfg.Rates[fault.PMSlowdown] = 0.5
	m := testFaultMachine(8, 8, fcfg)
	if m.Faults == nil || m.Mem.Faults != m.Faults {
		t.Fatal("enabled config did not share one injector with the memory system")
	}
}

// TestOOMKillCounterAndConsistency: when nothing is reclaimable the
// machine OOM-panics; the kill is counted and the machine state at the
// point of the kill is still internally consistent (the failed fault
// installed nothing).
func TestOOMKillCounterAndConsistency(t *testing.T) {
	m := testMachine(16, 16)
	as := m.NewSpace()
	v := as.Mmap(64, false, "big")
	v.Locked = true // unevictable: direct reclaim can free nothing

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("machine never OOMed")
		}
		if !strings.Contains(r.(string), "OOM") {
			t.Fatalf("unexpected panic: %v", r)
		}
		if m.Mem.Counters.OOMKills != 1 {
			t.Fatalf("OOMKills = %d, want 1", m.Mem.Counters.OOMKills)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("machine inconsistent after OOM kill: %v", err)
		}
	}()
	for i := 0; i < 64; i++ {
		m.Access(as, v.Start+pagetable.VPN(i), false)
	}
}

// TestSlowdownTargetsEveryTierBelowFastest: on a three-tier hierarchy the
// media-slowdown fault is tier-relative — an access to any tier below the
// fastest (the slowest included) may open a window and pays the slowdown
// factor inside it; fastest-tier accesses never do. With the former
// tier == TierPM test the fault hit tier 1 (cxl) only and never the slowest.
func TestSlowdownTargetsEveryTierBelowFastest(t *testing.T) {
	var tiers []mem.TierSpec
	for _, n := range []struct {
		name   string
		frames int
	}{{"dram", 16}, {"cxl", 16}, {"pm", 64}} {
		ts, _ := mem.BuiltinTierSpec(n.name)
		ts.Nodes = []int{n.frames}
		tiers = append(tiers, ts)
	}
	cfg := DefaultConfig()
	cfg.Mem.Topology = &mem.Topology{Tiers: tiers}
	cfg.OpCost = 0
	cfg.CPUCachePages = 0
	cfg.Faults = fault.Config{Seed: 1}
	cfg.Faults.Rates[fault.PMSlowdown] = 1 // every eligible access outside a window opens one
	m := New(cfg, &nullPolicy{})
	m.Faults.EnableWindowLog(0)

	// Fault the pages in: births fill dram, then cxl, then pm.
	as := m.NewSpace()
	v := as.Mmap(64, false, "x")
	byTier := map[mem.Tier]pagetable.VPN{}
	for i := 0; i < 64; i++ {
		vpn := v.Start + pagetable.VPN(i)
		byTier[m.Mem.Tier(m.Access(as, vpn, false))] = vpn
	}
	if len(byTier) != 3 {
		t.Fatalf("setup: pages landed on %d tiers, want 3", len(byTier))
	}
	window := 5 * sim.Millisecond // the injector's default window
	access := func(tier mem.Tier) (opened int64, lat sim.Duration) {
		m.Compute(2 * window) // leave any open window
		before, start := m.Faults.Counters.Injected[fault.PMSlowdown], m.Clock.Now()
		m.Access(as, byTier[tier], false)
		return m.Faults.Counters.Injected[fault.PMSlowdown] - before, sim.Duration(m.Clock.Now() - start)
	}
	if opened, lat := access(m.Mem.FastestTier()); opened != 0 || lat != m.Mem.Lat.Read[0] {
		t.Fatalf("fastest-tier access: opened %d windows, latency %v (base %v)", opened, lat, m.Mem.Lat.Read[0])
	}
	for tier := m.Mem.FastestTier() + 1; tier <= m.Mem.SlowestTier(); tier++ {
		logged := len(m.Faults.Windows())
		opened, lat := access(tier)
		if want := 4 * m.Mem.Lat.Read[tier]; opened != 1 || lat != want {
			t.Errorf("%s access: opened %d windows, latency %v; want 1 window and %v (4× base)",
				m.Mem.TierName(tier), opened, lat, want)
		}
		if w := m.Faults.Windows(); len(w) != logged+1 || w[logged].Kind != fault.PMSlowdown {
			t.Errorf("%s access: window log grew %d -> %d", m.Mem.TierName(tier), logged, len(w))
		}
	}
}
