package machine

// Transparent-huge-page coverage: compound pages on the buddy allocator,
// single-descriptor mapping of 512 base VPNs, whole-region migration and
// swap, and THP's fragmentation fallback.

import (
	"testing"

	"multiclock/internal/mem"
	"multiclock/internal/pagetable"
	"multiclock/internal/sim"
)

func thpMachine(dram, pm int) *Machine {
	cfg := DefaultConfig()
	cfg.Mem.DRAMNodes = []int{dram}
	cfg.Mem.PMNodes = []int{pm}
	cfg.OpCost = 0
	cfg.CPUCachePages = 0
	return New(cfg, &nullPolicy{})
}

func TestHugeFaultPopulatesWholeRegion(t *testing.T) {
	m := thpMachine(2048, 2048)
	as := m.NewSpace()
	v := as.MmapHuge(1000, "heap") // rounds to 1024
	if v.Pages() != 1024 || v.Start%pagetable.HugePages != 0 {
		t.Fatalf("huge VMA shape: start=%d pages=%d", v.Start, v.Pages())
	}
	pg := m.Access(as, v.Start+7, false)
	if !pg.IsHuge() || pg.Order != mem.MaxOrder || pg.Frames() != 512 {
		t.Fatalf("expected a 2 MiB compound page, got order %d", pg.Order)
	}
	// Every VPN of the region resolves to the same descriptor.
	for i := 0; i < 512; i++ {
		if as.Lookup(v.Start+pagetable.VPN(i)) != pg {
			t.Fatalf("vpn %d maps elsewhere", i)
		}
	}
	if as.Mapped() != 512 {
		t.Fatalf("mapped PTEs = %d", as.Mapped())
	}
	// One fault, 512 frames, one LRU entry.
	if m.Mem.Counters.MinorFaults != 1 {
		t.Fatalf("minor faults = %d, want 1", m.Mem.Counters.MinorFaults)
	}
	if m.Mem.Nodes[0].UsedFrames() != 512 {
		t.Fatalf("frames used = %d", m.Mem.Nodes[0].UsedFrames())
	}
	if m.Vecs[0].TotalEvictable() != 1 {
		t.Fatal("compound page should be one LRU entry")
	}
	// The frame block is huge-aligned.
	if int(pg.Frame)%512 != 0 {
		t.Fatalf("compound frame %d misaligned", pg.Frame)
	}
}

func TestHugeSecondRegionFaultsSeparately(t *testing.T) {
	m := thpMachine(4096, 2048)
	as := m.NewSpace()
	v := as.MmapHuge(1024, "heap")
	a := m.Access(as, v.Start, false)
	b := m.Access(as, v.Start+512, false)
	if a == b {
		t.Fatal("two regions share a descriptor")
	}
	if m.Mem.Counters.MinorFaults != 2 {
		t.Fatal("fault count")
	}
}

func TestHugeMigrationMovesBlock(t *testing.T) {
	m := thpMachine(2048, 2048)
	as := m.NewSpace()
	v := as.MmapHuge(512, "heap")
	pg := m.Access(as, v.Start, false)
	pm := m.Mem.TierNodes(mem.TierPM)[0]
	before := m.Mem.Counters.MigrationBusy
	if !m.MigratePage(pg, pm) {
		t.Fatal("huge migration failed")
	}
	if pg.Node != pm || m.Mem.Nodes[pm].UsedFrames() != 512 {
		t.Fatal("block not moved")
	}
	// Copy cost scales with the region size.
	if got := m.Mem.Counters.MigrationBusy - before; got < 512*m.Mem.Lat.PageCopy[mem.TierDRAM][mem.TierPM] {
		t.Fatalf("huge copy cost %v too small", got)
	}
	// Demotion counter weights frames.
	if m.Mem.Counters.Demotions != 512 {
		t.Fatalf("demotions = %d, want 512 (frame-weighted)", m.Mem.Counters.Demotions)
	}
	// Accesses through any VPN still work and hit PM.
	m.Access(as, v.Start+100, false)
	if m.Mem.Counters.Reads[mem.TierPM] == 0 {
		t.Fatal("post-migration access not served from PM")
	}
}

func TestHugeMigrationFailsWhenFragmented(t *testing.T) {
	m := thpMachine(2048, 1024)
	as := m.NewSpace()
	// Fragment PM: allocate all of it as base pages, free every other one.
	pmNode := m.Mem.TierNodes(mem.TierPM)[0]
	var frames []*mem.Page
	for {
		pg := m.Mem.AllocOn(pmNode, true)
		if pg == nil {
			break
		}
		frames = append(frames, pg)
	}
	for i := 0; i < len(frames); i += 2 {
		m.Mem.Free(frames[i])
	}
	v := as.MmapHuge(512, "heap")
	pg := m.Access(as, v.Start, false)
	if m.MigratePage(pg, pmNode) {
		t.Fatal("huge migration into fully fragmented node succeeded")
	}
	if !pg.OnList() || pg.Node != 0 {
		t.Fatal("failed migration did not restore the compound page")
	}
}

func TestHugeFallbackToBasePagesUnderFragmentation(t *testing.T) {
	m := thpMachine(1024, 1024)
	as := m.NewSpace()
	// Consume DRAM and PM such that no order-9 block exists anywhere:
	// allocate everything as base pages, free alternating frames.
	for _, id := range []mem.NodeID{0, 1} {
		var held []*mem.Page
		for {
			pg := m.Mem.AllocOn(id, true)
			if pg == nil {
				break
			}
			held = append(held, pg)
		}
		for i := 0; i < len(held); i += 2 {
			m.Mem.Free(held[i])
		}
	}
	v := as.MmapHuge(512, "heap")
	pg := m.Access(as, v.Start, false)
	if pg.IsHuge() {
		t.Fatal("huge fault succeeded despite full fragmentation")
	}
	if as.Mapped() != 1 {
		t.Fatalf("fallback mapped %d PTEs, want 1 base page", as.Mapped())
	}
}

func TestHugeUnmapReleasesEverything(t *testing.T) {
	m := thpMachine(2048, 1024)
	as := m.NewSpace()
	v := as.MmapHuge(512, "heap")
	m.Access(as, v.Start+13, false)
	m.Unmap(as, v.Start+400) // any covered vpn unmaps the region
	if as.Mapped() != 0 {
		t.Fatalf("mapped = %d after huge unmap", as.Mapped())
	}
	if m.Mem.Nodes[0].UsedFrames() != 0 {
		t.Fatal("frames leaked")
	}
	if m.Vecs[0].TotalEvictable() != 0 {
		t.Fatal("LRU entry leaked")
	}
	// Buddy coalescing restored the full block.
	if m.Mem.Nodes[0].FreeBlocks()[mem.MaxOrder] != 2048/512 {
		t.Fatal("block not coalesced")
	}
}

func TestHugeSwapOutAndBack(t *testing.T) {
	m := thpMachine(2048, 1024)
	as := m.NewSpace()
	v := as.MmapHuge(512, "heap")
	pg := m.Access(as, v.Start, false)
	seq := pg.Seq
	m.Vecs[pg.Node].Isolate(pg)
	m.SwapOut(pg)
	if as.Mapped() != 0 {
		t.Fatal("huge swap left mappings")
	}
	if m.Mem.Counters.SwapOuts != 512 {
		t.Fatalf("swap-outs = %d, want 512 (frame-weighted)", m.Mem.Counters.SwapOuts)
	}
	// Re-access takes major-fault costs for the region.
	before := m.Clock.Now()
	pg2 := m.Access(as, v.Start+3, false)
	if pg2.Seq == seq {
		t.Fatal("page identity reused")
	}
	if m.Mem.Counters.SwapIns != 512 {
		t.Fatalf("swap-ins = %d, want 512", m.Mem.Counters.SwapIns)
	}
	if sim.Duration(m.Clock.Now()-before) < 512*m.Mem.Lat.SwapIn {
		t.Fatal("major fault cost not charged for the region")
	}
}

func TestHugePagesRideTheLRUStateMachine(t *testing.T) {
	m := thpMachine(2048, 1024)
	as := m.NewSpace()
	v := as.MmapHuge(512, "heap")
	pg := m.Access(as, v.Start, false)
	// Supervised accesses climb the same ladder — one descriptor.
	for i := 0; i < 4; i++ {
		m.SupervisedAccess(as, v.Start+pagetable.VPN(i*17), false)
	}
	if !pg.Flags.Has(mem.FlagPromote) {
		t.Fatalf("hot huge page not on promote list (flags %b)", pg.Flags)
	}
}

func TestSplitHuge(t *testing.T) {
	m := thpMachine(2048, 1024)
	as := m.NewSpace()
	v := as.MmapHuge(512, "heap")
	pg := m.Access(as, v.Start, true) // dirty compound page
	m.Vecs[pg.Node].Isolate(pg)
	bases := m.SplitHuge(pg)
	if len(bases) != 512 {
		t.Fatalf("split produced %d pages", len(bases))
	}
	if m.Mem.Counters.HugeSplits != 1 {
		t.Fatal("split not counted")
	}
	// Every VPN now maps its own base descriptor over the original frames.
	for i := 0; i < 512; i++ {
		bp := as.Lookup(v.Start + pagetable.VPN(i))
		if bp == nil || bp.IsHuge() {
			t.Fatalf("vpn %d not base-mapped", i)
		}
		if bp.Frame != bases[0].Frame+mem.FrameID(i) {
			t.Fatalf("vpn %d frame %d misordered", i, bp.Frame)
		}
		if !bp.Flags.Has(mem.FlagDirty) {
			t.Fatal("dirtiness lost in split")
		}
		if !bp.OnList() {
			t.Fatal("base page not on LRU")
		}
	}
	if as.Mapped() != 512 {
		t.Fatal("PTE count changed")
	}
	// Frames stay allocated; freeing one base page returns one frame.
	used := m.Mem.Nodes[0].UsedFrames()
	if used != 512 {
		t.Fatalf("frames used = %d", used)
	}
	m.Unmap(as, v.Start+7)
	if m.Mem.Nodes[0].UsedFrames() != 511 {
		t.Fatal("base free after split broken")
	}
	// Base pages can now migrate individually.
	bp := as.Lookup(v.Start + 100)
	if !m.MigratePage(bp, m.Mem.TierNodes(mem.TierPM)[0]) {
		t.Fatal("split base page cannot migrate")
	}
}

// TestHugeRefaultIntoSplitRegion is ROADMAP correctness (e): a huge page is
// split, a few of its base pages are swapped out, and one of them is touched
// again while an aligned 512-frame block is free. The refault must take one
// base page — a compound mapping would land on the region's live PTEs (the
// parent panicked "PTE … already populated").
func TestHugeRefaultIntoSplitRegion(t *testing.T) {
	m := thpMachine(2048, 1024)
	as := m.NewSpace()
	v := as.MmapHuge(512, "heap")
	pg := m.Access(as, v.Start, false)
	m.Vecs[pg.Node].Isolate(pg)
	bases := m.SplitHuge(pg)
	for _, i := range []int{3, 4, 200} {
		m.Vecs[bases[i].Node].Isolate(bases[i])
		m.SwapOut(bases[i])
	}
	if free := m.Mem.Nodes[0].FreeBlocks()[mem.MaxOrder]; free == 0 {
		t.Fatal("no aligned block free: the refault would fall back for the wrong reason")
	}
	faults, swapIns := m.Mem.Counters.MinorFaults, m.Mem.Counters.SwapIns
	back := m.Access(as, v.Start+4, true)
	if back.IsHuge() || as.Lookup(v.Start+4) != back {
		t.Fatalf("refault mapped an order-%d page", back.Order)
	}
	if as.Mapped() != 510 || as.Swapped() != 2 {
		t.Fatalf("%d PTEs mapped and %d swapped after one base refault, want 510 and 2", as.Mapped(), as.Swapped())
	}
	if m.Mem.Counters.MinorFaults != faults+1 || m.Mem.Counters.SwapIns != swapIns+1 {
		t.Fatalf("refault counted %d faults and %d swap-ins, want one of each",
			m.Mem.Counters.MinorFaults-faults, m.Mem.Counters.SwapIns-swapIns)
	}
	for _, i := range []int{0, 5, 511} {
		if as.Lookup(v.Start+pagetable.VPN(i)) != bases[i] {
			t.Fatalf("vpn %d lost its base page", i)
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// A region that is entirely gone still comes back as one huge page.
	for i := 0; i < 512; i++ {
		m.Unmap(as, v.Start+pagetable.VPN(i))
	}
	if whole := m.Access(as, v.Start+9, false); !whole.IsHuge() {
		t.Fatal("an empty region refaulted as a base page")
	}
}
