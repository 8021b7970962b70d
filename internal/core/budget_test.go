package core

// Tests for kpromoted's promotion budget and the demotion rate limiter.

import (
	"testing"

	"multiclock/internal/lru"
	"multiclock/internal/mem"
	"multiclock/internal/pagetable"
	"multiclock/internal/sim"
)

func TestPromoteMaxZeroMeansUnlimited(t *testing.T) {
	mc := New(Config{})
	if mc.cfg.PromoteMax != -1 {
		t.Fatalf("zero PromoteMax should normalize to promote-all, got %d", mc.cfg.PromoteMax)
	}
}

// TestPromoteBudgetKeepsSurplusOnPromoteList: with a cap of k per wakeup,
// surplus candidates remain on the promote list and are promoted by later
// wakeups rather than being dropped back to active.
func TestPromoteBudgetKeepsSurplusOnPromoteList(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ScanInterval = 10 * sim.Millisecond
	cfg.PromoteMax = 4
	m, _ := testMachine(256, 1024, cfg)
	as := m.NewSpace()
	region := as.Mmap(500, false, "data")
	for i := 0; i < 500; i++ {
		m.Access(as, region.Start+pagetable.VPN(i), false)
	}
	hot := pmResidents(m, as, region, 16)
	if len(hot) != 16 {
		t.Fatalf("setup: %d PM residents", len(hot))
	}
	// Climb the ladder for all 16.
	for round := 0; round < 4; round++ {
		for _, vpn := range hot {
			m.Access(as, vpn, false)
		}
		m.Compute(11 * sim.Millisecond)
	}
	// Some promoted already (4 per wakeup); the rest must be parked on
	// the promote list, not demoted to active.
	pmVec := m.Vecs[1]
	promoted := int(m.Mem.Counters.Promotions)
	parked := pmVec.Len(lru.PromoteAnon)
	if promoted == 0 {
		t.Fatal("no promotions under budget")
	}
	if promoted > 4*8 {
		t.Fatalf("budget exceeded: %d promotions", promoted)
	}
	// Keep the pages hot; within a few more wakeups everything promotes.
	for round := 0; round < 8; round++ {
		for _, vpn := range hot {
			m.Access(as, vpn, false)
		}
		m.Compute(11 * sim.Millisecond)
	}
	inDRAM := 0
	for _, vpn := range hot {
		if pg := as.Lookup(vpn); pg != nil && m.Mem.Tier(pg) == mem.TierDRAM {
			inDRAM++
		}
	}
	if inDRAM != 16 {
		t.Fatalf("only %d/16 promoted after budgeted wakeups (parked was %d)", inDRAM, parked)
	}
}

// TestDemoteRateLimitSameInstant: repeat reclaim calls within one virtual
// instant must not age reference state twice — hot pages survive a
// promotion burst.
func TestDemoteRateLimitSameInstant(t *testing.T) {
	cfg := DefaultConfig()
	m, mc := testMachine(256, 1024, cfg)
	as := m.NewSpace()
	region := as.Mmap(400, false, "data")
	for i := 0; i < 400; i++ {
		m.Access(as, region.Start+pagetable.VPN(i), false)
	}
	// Exhaust DRAM's free headroom so the node is genuinely under its
	// watermarks when pressure fires.
	for m.Mem.Nodes[0].FreeFrames() > 1 {
		pg := m.Mem.AllocOn(0, true)
		if pg == nil {
			break
		}
		m.Vecs[0].Add(pg)
	}
	// Mark every DRAM page referenced (hardware bit set).
	dramVec := m.Vecs[0]
	for k := lru.Kind(0); k < lru.Unevictable; k++ {
		dramVec.List(k).Each(func(pg *mem.Page) { pg.Accessed = true })
	}
	demosBefore := m.Mem.Counters.Demotions
	// countReferenced tallies pages still holding protection (hardware
	// bit or software flag) on node 0.
	countReferenced := func() int {
		n := 0
		for k := lru.Kind(0); k < lru.Unevictable; k++ {
			dramVec.List(k).Each(func(pg *mem.Page) {
				if pg.Accessed || pg.Flags.Has(mem.FlagReferenced) {
					n++
				}
			})
		}
		return n
	}
	// One pressure episode may age and reclaim (direct-reclaim style).
	mc.Pressure(0)
	refAfterFirst := countReferenced()
	// Repeat calls at the same instant may harvest pages the first call
	// already aged to cold, but must not spend any further reference
	// state: no application access could have re-referenced anything.
	mc.Pressure(0)
	mc.Pressure(0)
	if got := countReferenced(); got < refAfterFirst {
		t.Fatalf("same-instant repeat pressure spent reference state: %d → %d", refAfterFirst, got)
	}
	// Spaced episodes are allowed to make progress again.
	m.Compute(1 * sim.Millisecond)
	mc.Pressure(0)
	m.Compute(1 * sim.Millisecond)
	mc.Pressure(0)
	if m.Mem.Counters.Demotions == demosBefore {
		t.Fatal("spaced pressure episodes made no progress")
	}
}

// TestWriteBiasOrderingUnit: with a budget of one, the dirty candidate is
// promoted before the clean one.
func TestWriteBiasOrderingUnit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ScanInterval = 10 * sim.Millisecond
	cfg.WriteBias = true
	cfg.PromoteMax = 1
	m, _ := testMachine(256, 1024, cfg)
	as := m.NewSpace()
	region := as.Mmap(500, false, "data")
	for i := 0; i < 500; i++ {
		m.Access(as, region.Start+pagetable.VPN(i), false)
	}
	hot := pmResidents(m, as, region, 2)
	if len(hot) != 2 {
		t.Fatalf("setup: %d PM residents", len(hot))
	}
	cleanVPN, dirtyVPN := hot[0], hot[1]
	for round := 0; round < 4; round++ {
		m.Access(as, cleanVPN, false)
		m.Access(as, dirtyVPN, true)
		m.Compute(11 * sim.Millisecond)
	}
	dirty := as.Lookup(dirtyVPN)
	clean := as.Lookup(cleanVPN)
	if m.Mem.Tier(dirty) != mem.TierDRAM {
		t.Fatal("dirty page not promoted first")
	}
	// With budget 1/wakeup and both qualifying at the same wakeup, the
	// clean page promotes one wakeup later at the earliest; at this point
	// it may or may not have happened — no assertion beyond dirty-first.
	_ = clean
}

// TestHugeDemotionSplitsOnFragmentation: a cold compound page whose
// migration to PM fails on fragmentation is split (split_huge_page) so its
// base pages can reclaim individually — the kernel's split-on-reclaim
// path.
func TestHugeDemotionSplitsOnFragmentation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ScanInterval = 10 * sim.Millisecond
	m, _ := testMachine(1024, 1024, cfg)
	as := m.NewSpace()

	// Fragment PM completely: no order-9 block can ever form (alternating
	// frames stay allocated).
	pmNode := m.Mem.TierNodes(mem.TierPM)[0]
	var held []*mem.Page
	for {
		pg := m.Mem.AllocOn(pmNode, true)
		if pg == nil {
			break
		}
		held = append(held, pg)
	}
	for i := 0; i < len(held); i += 2 {
		m.Mem.Free(held[i])
	}

	// A huge allocation fills half of DRAM, then a base-page stream
	// pressures the node; the idle compound page becomes the demotion
	// candidate but cannot move wholesale into fragmented PM.
	huge := as.MmapHuge(512, "huge")
	hp := m.Access(as, huge.Start, false)
	if !hp.IsHuge() {
		t.Skip("huge fault fell back")
	}
	stream := as.Mmap(900, false, "stream")
	for round := 0; round < 6; round++ {
		for i := 0; i < 900; i++ {
			m.Access(as, stream.Start+pagetable.VPN(i), false)
		}
		m.Compute(11 * sim.Millisecond)
	}
	if m.Mem.Counters.HugeSplits == 0 {
		t.Fatal("cold huge page was never split under fragmented-PM pressure")
	}
	// After the split, base pages demote individually into the
	// fragmented PM holes.
	if m.Mem.Counters.Demotions == 0 {
		t.Fatal("no base-page demotions after the split")
	}
	// Every base page of the region is accounted for: still mapped, or
	// individually swapped out (the machine is oversubscribed, so swap is
	// expected — but only page by page, never as a 2 MiB unit).
	mapped := 0
	as.Walk(huge.Start, huge.End, func(vpn pagetable.VPN, pg *mem.Page) {
		if pg.IsHuge() {
			t.Fatal("compound mapping survived the split")
		}
		mapped++
	})
	if mapped+as.Swapped() < 512 {
		t.Fatalf("region pages lost: %d mapped + %d swapped", mapped, as.Swapped())
	}
}
