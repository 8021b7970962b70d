package core

import (
	"reflect"
	"testing"

	"multiclock/internal/fault"
	"multiclock/internal/lru"
	"multiclock/internal/machine"
	"multiclock/internal/mem"
	"multiclock/internal/pagetable"
	"multiclock/internal/sim"
)

func testMachine(dram, pm int, cfg Config) (*machine.Machine, *MultiClock) {
	mc := New(cfg)
	mcfg := machine.DefaultConfig()
	mcfg.Mem.DRAMNodes = []int{dram}
	mcfg.Mem.PMNodes = []int{pm}
	mcfg.OpCost = 0
	mcfg.CPUCachePages = 0
	m := machine.New(mcfg, mc)
	return m, mc
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.ScanInterval != 1*sim.Second {
		t.Fatal("paper scan interval is 1s")
	}
	if cfg.ScanBatch != 1024 {
		t.Fatal("paper scan batch is 1024")
	}
	if cfg.PromoteMax >= 0 {
		t.Fatal("paper promotes all selected pages")
	}
}

func TestZeroConfigNormalized(t *testing.T) {
	mc := New(Config{})
	if mc.cfg.ScanInterval != 1*sim.Second || mc.cfg.ScanBatch != 1024 || mc.cfg.PromoteMax != -1 {
		t.Fatalf("zero config not normalized: %+v", mc.cfg)
	}
}

func TestAttachStartsDaemonPerNode(t *testing.T) {
	_, mc := testMachine(64, 256, DefaultConfig())
	if len(mc.Daemons()) != 2 {
		t.Fatalf("daemons = %d, want one per node", len(mc.Daemons()))
	}
	if mc.Name() != "multiclock" {
		t.Fatal("name")
	}
}

// pmResidents maps which of the given VPNs currently reside on the PM tier.
func pmResidents(m *machine.Machine, as *pagetable.AddressSpace, v *pagetable.VMA, max int) []pagetable.VPN {
	var out []pagetable.VPN
	as.WalkVMA(v, func(vpn pagetable.VPN, pg *mem.Page) {
		if len(out) < max && m.Mem.Tier(pg) == mem.TierPM {
			out = append(out, vpn)
		}
	})
	return out
}

// TestPromotionEndToEnd is the paper's core behaviour: pages residing in PM
// (after demotion placed them there) that become hot — bimodal
// "tier-friendly" pages, §II-A — must be promoted to DRAM by kpromoted.
func TestPromotionEndToEnd(t *testing.T) {
	m, _ := testMachine(256, 1024, DefaultConfig())
	as := m.NewSpace()

	// Allocate well beyond DRAM; demotion pushes the cold overflow to PM.
	region := as.Mmap(500, false, "data")
	for i := 0; i < 500; i++ {
		m.Access(as, region.Start+pagetable.VPN(i), false)
	}
	hotVPNs := pmResidents(m, as, region, 16)
	if len(hotVPNs) != 16 {
		t.Fatalf("setup: only %d PM residents", len(hotVPNs))
	}

	// Keep the hot set warm across many scan intervals: touch, let a scan
	// observe, repeat. Each interval the ladder advances one step, so
	// four intervals reach the promote list and the fifth migrates.
	for round := 0; round < 8; round++ {
		for _, vpn := range hotVPNs {
			m.Access(as, vpn, false)
		}
		m.Compute(1100 * sim.Millisecond)
	}

	promoted := 0
	for _, vpn := range hotVPNs {
		pg := as.Lookup(vpn)
		if pg == nil {
			t.Fatal("hot page vanished")
		}
		if m.Mem.Tier(pg) == mem.TierDRAM {
			promoted++
			// Promoted pages land on the DRAM active or promote list.
			if pg.Flags.Has(mem.FlagPromote) == pg.Flags.Has(mem.FlagActive) {
				t.Fatalf("promoted page flags wrong: %v", pg.Flags)
			}
		}
	}
	if promoted != 16 {
		t.Fatalf("promoted %d/16 hot PM pages", promoted)
	}
	if m.Mem.Counters.Promotions < 16 {
		t.Fatalf("promotion counter = %d", m.Mem.Counters.Promotions)
	}
}

// TestColdPagesStayInPM: single-touch pages must never be promoted — the
// frequency requirement that distinguishes MULTI-CLOCK from recency-only
// selection.
func TestColdPagesStayInPM(t *testing.T) {
	m, _ := testMachine(64, 512, DefaultConfig())
	as := m.NewSpace()
	filler := as.Mmap(80, false, "filler")
	for i := 0; i < 80; i++ {
		m.Access(as, filler.Start+pagetable.VPN(i), false)
	}
	cold := as.Mmap(64, false, "cold")
	var coldPages []*mem.Page
	for i := 0; i < 64; i++ {
		coldPages = append(coldPages, m.Access(as, cold.Start+pagetable.VPN(i), false))
	}
	// Touch each cold page at most once per several intervals.
	for round := 0; round < 6; round++ {
		m.Compute(3 * sim.Second)
		if round%3 == 0 {
			for i := 0; i < 64; i += 4 {
				m.Access(as, cold.Start+pagetable.VPN(i), false)
			}
		}
	}
	_ = coldPages
	if m.Mem.Counters.Promotions != 0 {
		t.Fatalf("promotions = %d, want 0 — single touches must never qualify", m.Mem.Counters.Promotions)
	}
}

// TestDemotionUnderPressure: allocating beyond DRAM must trigger watermark
// demotion of cold DRAM pages to PM rather than swaps. During the burst,
// allocations may overflow to PM births (kswapd races the allocator); by
// the next daemon wakeup the DRAM node must be back above its watermarks.
func TestDemotionUnderPressure(t *testing.T) {
	m, _ := testMachine(128, 1024, DefaultConfig())
	as := m.NewSpace()
	v := as.Mmap(400, false, "stream")
	for i := 0; i < 400; i++ {
		m.Access(as, v.Start+pagetable.VPN(i), false)
	}
	m.Compute(2200 * sim.Millisecond) // two daemon wakeups
	if m.Mem.Counters.Demotions == 0 {
		t.Fatal("no demotions despite DRAM oversubscription")
	}
	if m.Mem.Counters.SwapOuts != 0 {
		t.Fatalf("swapped %d pages with PM space free", m.Mem.Counters.SwapOuts)
	}
	// kswapd restores headroom up to the high watermark.
	n := m.Mem.Nodes[0]
	if n.FreeFrames() < n.WM.Low {
		t.Fatalf("DRAM free %d below low watermark %d after pressure", n.FreeFrames(), n.WM.Low)
	}
}

// TestPromotionDisplacesColdDRAM: when DRAM is full, promotions must force
// immediate demotions (§III-C) and still succeed.
func TestPromotionDisplacesColdDRAM(t *testing.T) {
	m, _ := testMachine(128, 1024, DefaultConfig())
	as := m.NewSpace()
	region := as.Mmap(400, false, "data")
	for i := 0; i < 400; i++ {
		m.Access(as, region.Start+pagetable.VPN(i), false)
	}
	demotionsBefore := m.Mem.Counters.Demotions
	// More hot PM pages than DRAM's free headroom, so promotions must
	// displace cold DRAM residents.
	hotVPNs := pmResidents(m, as, region, 96)
	if len(hotVPNs) != 96 {
		t.Fatalf("setup: %d PM residents", len(hotVPNs))
	}
	// Also keep a DRAM-resident set warm so DRAM never drains naturally:
	// promotions must displace cold DRAM pages instead.
	for round := 0; round < 10; round++ {
		for _, vpn := range hotVPNs {
			m.Access(as, vpn, false)
		}
		m.Compute(1100 * sim.Millisecond)
	}
	promoted := 0
	for _, vpn := range hotVPNs {
		pg := as.Lookup(vpn)
		if pg != nil && m.Mem.Tier(pg) == mem.TierDRAM {
			promoted++
		}
	}
	if promoted == 0 {
		t.Fatal("no hot pages promoted into a full DRAM tier")
	}
	if m.Mem.Counters.Demotions == demotionsBefore {
		t.Fatal("promotions into full DRAM did not trigger further demotions")
	}
}

func TestStopHaltsDaemons(t *testing.T) {
	m, mc := testMachine(64, 256, DefaultConfig())
	mc.Stop()
	m.Compute(10 * sim.Second)
	for _, d := range mc.Daemons() {
		if d.Runs != 0 {
			t.Fatal("stopped daemon ran")
		}
	}
}

// TestDRAMPromoteListDrainsToActive: on the top tier there is nowhere to
// promote; promote-list pages must return to the active list.
func TestDRAMPromoteListDrainsToActive(t *testing.T) {
	m, _ := testMachine(256, 256, DefaultConfig())
	as := m.NewSpace()
	v := as.Mmap(4, false, "hot")
	var pages []*mem.Page
	for i := 0; i < 4; i++ {
		pages = append(pages, m.Access(as, v.Start+pagetable.VPN(i), false))
	}
	// Drive them onto the DRAM promote list via supervised accesses.
	for round := 0; round < 4; round++ {
		for i := 0; i < 4; i++ {
			m.SupervisedAccess(as, v.Start+pagetable.VPN(i), false)
		}
	}
	if m.Vecs[0].Len(lru.PromoteAnon) == 0 {
		t.Fatal("setup: nothing on DRAM promote list")
	}
	m.Compute(1100 * sim.Millisecond) // one kpromoted run
	if m.Vecs[0].Len(lru.PromoteAnon) != 0 {
		t.Fatal("DRAM promote list not drained")
	}
	for _, pg := range pages {
		if m.Mem.Tier(pg) != mem.TierDRAM || !pg.Flags.Has(mem.FlagActive) {
			t.Fatal("page should be active in DRAM")
		}
	}
	if m.Mem.Counters.Promotions != 0 {
		t.Fatal("counted a promotion on the top tier")
	}
}

// TestOversubscribedMachineSwaps: when both tiers are full, MULTI-CLOCK
// falls back to swapping from the lowest tier without OOM.
func TestOversubscribedMachineSwaps(t *testing.T) {
	m, _ := testMachine(32, 32, DefaultConfig())
	as := m.NewSpace()
	v := as.Mmap(128, false, "huge")
	for i := 0; i < 128; i++ {
		m.Access(as, v.Start+pagetable.VPN(i), false)
	}
	if m.Mem.Counters.SwapOuts == 0 {
		t.Fatal("no swaps on a fully oversubscribed machine")
	}
	if m.Mem.Counters.OOMKills != 0 {
		t.Fatal("OOM")
	}
}

// TestWriteBiasOrdering: with WriteBias on, dirty promote-list pages are
// promoted before clean ones when DRAM headroom is scarce.
func TestWriteBiasPromotesDirtyFirst(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WriteBias = true
	cfg.PromoteMax = 1 // force scarcity: one promotion per wakeup
	m, _ := testMachine(256, 1024, cfg)
	as := m.NewSpace()
	filler := as.Mmap(300, false, "filler")
	for i := 0; i < 300; i++ {
		m.Access(as, filler.Start+pagetable.VPN(i), false)
	}
	hot := as.Mmap(2, false, "hot")
	clean := m.Access(as, hot.Start, false)
	dirty := m.Access(as, hot.Start+1, true)
	for round := 0; round < 4; round++ {
		m.Access(as, hot.Start, false)
		m.Access(as, hot.Start+1, true)
		m.Compute(1100 * sim.Millisecond)
	}
	// Both climb the ladder together, but the dirty page must win the
	// single promotion slot first.
	if m.Mem.Tier(dirty) != mem.TierDRAM {
		t.Fatal("dirty page not promoted")
	}
	_ = clean
}

// TestDeterminism: identical runs produce identical virtual time and
// counters.
func TestDeterminism(t *testing.T) {
	run := func() (sim.Duration, mem.Counters) {
		m, _ := testMachine(128, 512, DefaultConfig())
		as := m.NewSpace()
		v := as.Mmap(300, false, "w")
		rng := sim.NewRNG(99)
		for i := 0; i < 5000; i++ {
			m.Access(as, v.Start+pagetable.VPN(rng.Intn(300)), rng.Intn(2) == 0)
			if i%100 == 0 {
				m.Compute(50 * sim.Millisecond)
			}
		}
		return m.Elapsed(), m.Mem.Counters
	}
	e1, c1 := run()
	e2, c2 := run()
	if e1 != e2 {
		t.Fatalf("elapsed differs: %v vs %v", e1, e2)
	}
	if !reflect.DeepEqual(c1, c2) {
		t.Fatalf("counters differ:\n%+v\n%+v", c1, c2)
	}
}

// TestFrameConservationUnderChurn: heavy promotion/demotion churn must
// never leak or duplicate frames.
func TestFrameConservationUnderChurn(t *testing.T) {
	m, _ := testMachine(64, 256, DefaultConfig())
	as := m.NewSpace()
	v := as.Mmap(200, false, "w")
	rng := sim.NewRNG(3)
	mapped := map[pagetable.VPN]bool{}
	for i := 0; i < 20000; i++ {
		vpn := v.Start + pagetable.VPN(rng.Intn(200))
		switch rng.Intn(10) {
		case 0:
			if mapped[vpn] {
				m.Unmap(as, vpn)
				delete(mapped, vpn)
			}
		default:
			m.Access(as, vpn, rng.Intn(3) == 0)
			mapped[vpn] = true
		}
		if i%500 == 0 {
			m.Compute(300 * sim.Millisecond)
		}
	}
	used := 0
	for _, n := range m.Mem.Nodes {
		used += n.UsedFrames()
	}
	// Swapped-out pages vanish from our map view only on re-access; count
	// live mappings instead.
	if used != as.Mapped() {
		t.Fatalf("frames used %d != PTEs mapped %d", used, as.Mapped())
	}
	onLists := 0
	for _, vec := range m.Vecs {
		onLists += vec.TotalEvictable() + vec.Len(lru.Unevictable)
	}
	if onLists != used {
		t.Fatalf("LRU population %d != frames used %d", onLists, used)
	}
}

// testChaosMachine builds a machine with the given fault-injection
// configuration attached.
func testChaosMachine(dram, pm int, cfg Config, fcfg fault.Config) (*machine.Machine, *MultiClock) {
	mc := New(cfg)
	mcfg := machine.DefaultConfig()
	mcfg.Mem.DRAMNodes = []int{dram}
	mcfg.Mem.PMNodes = []int{pm}
	mcfg.OpCost = 0
	mcfg.CPUCachePages = 0
	mcfg.Faults = fcfg
	m := machine.New(mcfg, mc)
	return m, mc
}

// pinnedDRAMHotSet fills DRAM with unevictable pages, so every promotion
// attempt fails (makeRoomIn cannot demote locked pages), then heats a
// 32-page set that lands in PM and earns promotion for 14 wakeups.
func pinnedDRAMHotSet(m *machine.Machine) (*pagetable.AddressSpace, *pagetable.VMA) {
	as := m.NewSpace()
	pin := as.Mmap(64, false, "pin")
	pin.Locked = true
	for i := 0; i < 64; i++ {
		m.Access(as, pin.Start+pagetable.VPN(i), false)
	}
	hot := as.Mmap(32, false, "hot")
	for round := 0; round < 14; round++ {
		for i := 0; i < 32; i++ {
			m.Access(as, hot.Start+pagetable.VPN(i), false)
		}
		m.Compute(1100 * sim.Millisecond)
	}
	return as, hot
}

// TestPromoteRetryBackoff: on a machine that injects faults, a promotion
// that cannot migrate (here DRAM is pinned solid with mlocked pages and
// every migration is injected as pinned) must be requeued onto the promote
// list for the bounded backoff retries, and only then dropped to the active
// list — never silently lost.
func TestPromoteRetryBackoff(t *testing.T) {
	fcfg := fault.Config{Seed: 42}
	fcfg.Rates[fault.MigratePinned] = 1.0
	m, mc := testChaosMachine(64, 512, DefaultConfig(), fcfg)
	as, hot := pinnedDRAMHotSet(m)

	if mc.PromoteFails == 0 {
		t.Fatal("setup: promotions never failed despite pinned DRAM")
	}
	if m.Mem.Counters.Promotions != 0 {
		t.Fatalf("promoted %d pages with every migration pinned", m.Mem.Counters.Promotions)
	}
	if mc.PromoteRequeues == 0 {
		t.Fatal("failed promotions were never requeued for retry")
	}
	if mc.PromoteDrops == 0 {
		t.Fatal("retry budget never exhausted: pages must eventually drop to active")
	}
	// Every page that dropped spent its full budget first.
	if mc.PromoteRequeues < promoteRetryMax*mc.PromoteDrops {
		t.Fatalf("requeues=%d < max(%d)*drops=%d: pages dropped early",
			mc.PromoteRequeues, promoteRetryMax, mc.PromoteDrops)
	}
	// No hot page may vanish: still mapped, still in PM, on a list.
	for i := 0; i < 32; i++ {
		pg := as.Lookup(hot.Start + pagetable.VPN(i))
		if pg == nil {
			t.Fatalf("hot page %d vanished during retries", i)
		}
		if !pg.Flags.Has(mem.FlagLRU) || pg.Flags.Has(mem.FlagIsolated) {
			t.Fatalf("hot page %d leaked off the LRU: flags %v", i, pg.Flags)
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDemoteRetrySwapFallback: under 100% pinned-migration injection,
// demotion candidates must be returned to their inactive list for the
// bounded retry budget and fall back to swap only after it is spent.
func TestDemoteRetrySwapFallback(t *testing.T) {
	fcfg := fault.Config{Seed: 42}
	fcfg.Rates[fault.MigratePinned] = 1.0
	m, mc := testChaosMachine(64, 512, DefaultConfig(), fcfg)

	if mc.retries == nil {
		t.Fatal("fault injection present but retries are off")
	}

	as := m.NewSpace()
	v := as.Mmap(300, false, "stream")
	for i := 0; i < 300; i++ {
		m.Access(as, v.Start+pagetable.VPN(i), false)
	}
	m.Compute(5 * sim.Second)

	if m.Mem.Counters.Demotions != 0 {
		t.Fatalf("%d demotions succeeded with pinned rate 1.0", m.Mem.Counters.Demotions)
	}
	if mc.DemoteRequeues == 0 {
		t.Fatal("failed demotions were never retried")
	}
	if mc.DemoteSwapFallbacks == 0 || m.Mem.Counters.SwapOuts == 0 {
		t.Fatalf("no swap fallback after retry exhaustion (fallbacks=%d swapouts=%d)",
			mc.DemoteSwapFallbacks, m.Mem.Counters.SwapOuts)
	}
	// Each fallback page spent its full demoteRetryMax budget first.
	if mc.DemoteRequeues < demoteRetryMax*mc.DemoteSwapFallbacks {
		t.Fatalf("requeues=%d < max(%d)*fallbacks=%d: pages swapped early",
			mc.DemoteRequeues, demoteRetryMax, mc.DemoteSwapFallbacks)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRetryDisabledWithoutFaults: a fault-free machine keeps the paper's
// behaviour — a promotion that cannot migrate drops to the active list at
// once (§III-C), with no retry bookkeeping.
func TestRetryDisabledWithoutFaults(t *testing.T) {
	m, mc := testMachine(64, 512, DefaultConfig())
	if mc.retries != nil {
		t.Fatal("retry map allocated on a fault-free machine")
	}
	pinnedDRAMHotSet(m)
	if mc.PromoteFails == 0 {
		t.Fatal("setup: promotions never failed despite pinned DRAM")
	}
	if mc.PromoteRequeues != 0 || mc.PromoteDrops != 0 || mc.DemoteRequeues != 0 {
		t.Fatalf("retry paths ran without faults: requeues p=%d d=%d, drops %d",
			mc.PromoteRequeues, mc.DemoteRequeues, mc.PromoteDrops)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
