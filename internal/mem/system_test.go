package mem

import (
	"testing"
	"testing/quick"

	"multiclock/internal/sim"
)

func testSystem(dram, pm int) *System {
	cfg := DefaultConfig()
	cfg.DRAMNodes = []int{dram}
	cfg.PMNodes = []int{pm}
	return NewSystem(sim.NewClock(), cfg)
}

func TestNewSystemLayout(t *testing.T) {
	s := testSystem(100, 400)
	if len(s.Nodes) != 2 {
		t.Fatalf("nodes = %d, want 2", len(s.Nodes))
	}
	if s.Nodes[0].Tier != TierDRAM || s.Nodes[1].Tier != TierPM {
		t.Fatal("tier assignment wrong")
	}
	if s.TierCapacity(TierDRAM) != 100 || s.TierCapacity(TierPM) != 400 {
		t.Fatal("capacity wrong")
	}
	if s.TierFree(TierDRAM) != 100 {
		t.Fatal("initial free wrong")
	}
}

func TestNewSystemRequiresDRAM(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no-DRAM config did not panic")
		}
	}()
	NewSystem(sim.NewClock(), Config{PMNodes: []int{10}})
}

func TestAllocBornInDRAM(t *testing.T) {
	s := testSystem(100, 400)
	pg := s.Alloc(DefaultOrder())
	if pg == nil {
		t.Fatal("alloc failed")
	}
	if s.Tier(pg) != TierDRAM {
		t.Fatalf("first page born in %v, want DRAM", s.Tier(pg))
	}
	if s.Counters.Allocs[TierDRAM] != 1 {
		t.Fatal("alloc counter")
	}
}

func TestAllocFallsBackToPM(t *testing.T) {
	s := testSystem(50, 200)
	sawPM := false
	for i := 0; i < 200; i++ {
		pg := s.Alloc(DefaultOrder())
		if pg == nil {
			t.Fatalf("alloc %d failed with PM space left", i)
		}
		if s.Tier(pg) == TierPM {
			sawPM = true
		}
	}
	if !sawPM {
		t.Fatal("never fell back to PM")
	}
	// DRAM should be left with only its min reserve.
	if free := s.Nodes[0].FreeFrames(); free > s.Nodes[0].WM.Min {
		t.Fatalf("DRAM free %d above min reserve %d while PM used", free, s.Nodes[0].WM.Min)
	}
}

func TestAllocExhaustsEverything(t *testing.T) {
	s := testSystem(20, 30)
	n := 0
	for {
		pg := s.Alloc(DefaultOrder())
		if pg == nil {
			break
		}
		n++
		if n > 100 {
			t.Fatal("allocated more pages than frames exist")
		}
	}
	if n != 50 {
		t.Fatalf("allocated %d pages, want 50 (reserves must be usable as last resort)", n)
	}
}

func TestAllocOnRespectsReserve(t *testing.T) {
	s := testSystem(100, 100)
	node := s.Nodes[0]
	for node.FreeFrames() > node.WM.Min {
		if s.AllocOn(0, false) == nil {
			t.Fatal("alloc failed above reserve")
		}
	}
	if s.AllocOn(0, false) != nil {
		t.Fatal("non-emergency alloc dipped into reserve")
	}
	if s.AllocOn(0, true) == nil {
		t.Fatal("emergency alloc should use reserve")
	}
}

func TestFreeReturnsFrame(t *testing.T) {
	s := testSystem(10, 10)
	pg := s.Alloc(DefaultOrder())
	free := s.Nodes[0].FreeFrames()
	s.Free(pg)
	if s.Nodes[0].FreeFrames() != free+1 {
		t.Fatal("frame not returned")
	}
	if s.Counters.Frees[TierDRAM] != 1 {
		t.Fatal("free counter")
	}
	if pg.Node != NoNode || pg.Frame != NoFrame {
		t.Fatal("freed page still names a frame")
	}
}

// TestDescriptorRecycled pins the descriptor contract (DESIGN.md §7.4): Free
// hands the descriptor to the next birth, and the page born into it is a new
// page — a Seq never seen before and nothing left of the previous tenant.
func TestDescriptorRecycled(t *testing.T) {
	s := testSystem(100, 400)
	s.clock.Advance(5 * sim.Microsecond) // so that BornAt is not zero by accident
	pg := shadowPage(t, s)
	if !s.PromoteWithShadow(pg, s.TierNodes(TierDRAM)[0]).OK || !pg.HasShadow() {
		t.Fatal("shadow promotion failed")
	}
	// A long life leaves marks on every field a policy or the machine owns.
	pg.Flags |= FlagDirty | FlagReferenced | FlagActive | FlagPoisoned
	pg.Accessed, pg.HWDirty = true, true
	pg.Hist, pg.CacheHint = 0x15, 7
	pg.VA, pg.Space = 0x7000, 3
	seq, next := pg.Seq, s.pageSeq
	s.clock.Advance(5 * sim.Microsecond)

	pg.ClearFlags(FlagIsolated)
	s.Free(pg)
	if s.ShadowFrames() != 0 {
		t.Fatal("Free left the shadow frame held")
	}
	other := s.AllocOn(s.TierNodes(TierPM)[0], false)
	if other != pg {
		t.Fatal("the next birth did not reuse the freed descriptor")
	}
	if other.Seq == seq || other.Seq != next || s.pageSeq != next+1 {
		t.Fatalf("rebirth has seq %d (previous life %d), want the fresh seq %d", other.Seq, seq, next)
	}
	// The slot is the one thing a rebirth keeps: it is where the descriptor
	// lives, not part of the page.
	want := Page{Node: other.Node, Frame: other.Frame, Seq: next, Space: -1, BornAt: s.clock.Now(), slab: other.slab}
	if other.slab == 0 {
		t.Fatal("an issued descriptor has no slab chunk")
	}
	if *other != want {
		t.Fatalf("rebirth carries state from the previous life:\n got %+v\nwant %+v", *other, want)
	}
	if other.HasShadow() || other.OnList() || s.Tier(other) != TierPM {
		t.Fatal("rebirth is shadowed, listed or misplaced")
	}

	// LIFO: two frees come back in reverse order, and a birth that finds
	// the free list empty takes a never-used descriptor.
	a, b := s.Alloc(DefaultOrder()), s.Alloc(DefaultOrder())
	s.Free(a)
	s.Free(b)
	if got := s.Alloc(DefaultOrder()); got != b {
		t.Fatal("free list is not last-in first-out")
	}
	if got := s.Alloc(DefaultOrder()); got != a {
		t.Fatal("free list lost a descriptor")
	}
	if got := s.Alloc(DefaultOrder()); got == a || got == b || got == other {
		t.Fatal("a live descriptor was issued twice")
	}
}

func TestFreeOnListPanics(t *testing.T) {
	s := testSystem(10, 10)
	pg := s.Alloc(DefaultOrder())
	l := &PageList{Name: "l"}
	l.PushBack(pg)
	defer func() {
		if recover() == nil {
			t.Fatal("freeing a listed page did not panic")
		}
	}()
	s.Free(pg)
}

func TestMigratePromotes(t *testing.T) {
	s := testSystem(100, 100)
	pg := s.AllocOn(1, false) // PM
	pg.SetFlags(FlagIsolated)
	res := s.Migrate(pg, 0)
	if !res.OK {
		t.Fatal("migration failed")
	}
	if s.Tier(pg) != TierDRAM {
		t.Fatal("page not on DRAM after promotion")
	}
	if s.Counters.Promotions != 1 || s.Counters.Demotions != 0 {
		t.Fatalf("promotion counters: %+v", s.Counters)
	}
	if res.Cost <= 0 || res.Tax <= 0 {
		t.Fatal("migration must cost time")
	}
	// Frame accounting balanced.
	if s.Nodes[1].FreeFrames() != 100 || s.Nodes[0].FreeFrames() != 99 {
		t.Fatal("frame accounting after migration")
	}
}

func TestMigrateDemotes(t *testing.T) {
	s := testSystem(100, 100)
	pg := s.AllocOn(0, false)
	pg.SetFlags(FlagIsolated)
	if res := s.Migrate(pg, 1); !res.OK {
		t.Fatal("demotion failed")
	}
	if s.Counters.Demotions != 1 {
		t.Fatal("demotion counter")
	}
}

func TestMigrateUnevictableFails(t *testing.T) {
	s := testSystem(100, 100)
	pg := s.AllocOn(1, false)
	pg.SetFlags(FlagIsolated | FlagUnevictable)
	if res := s.Migrate(pg, 0); res.OK {
		t.Fatal("unevictable page migrated")
	}
	if s.Counters.MigrateFails != 1 {
		t.Fatal("fail counter")
	}
}

func TestMigrateNotIsolatedPanics(t *testing.T) {
	s := testSystem(100, 100)
	pg := s.AllocOn(1, false)
	defer func() {
		if recover() == nil {
			t.Fatal("migrating non-isolated page did not panic")
		}
	}()
	s.Migrate(pg, 0)
}

func TestMigrateToFullNodeFails(t *testing.T) {
	s := testSystem(5, 100)
	for s.Nodes[0].FreeFrames() > 0 {
		s.AllocOn(0, true)
	}
	pg := s.AllocOn(1, false)
	pg.SetFlags(FlagIsolated)
	if res := s.Migrate(pg, 0); res.OK {
		t.Fatal("migration into full node succeeded")
	}
	if s.Tier(pg) != TierPM {
		t.Fatal("failed migration moved the page")
	}
}

func TestMigrateSameNodeNoop(t *testing.T) {
	s := testSystem(10, 10)
	pg := s.AllocOn(0, false)
	pg.SetFlags(FlagIsolated)
	res := s.Migrate(pg, 0)
	if !res.OK || s.Counters.Promotions+s.Counters.Demotions != 0 {
		t.Fatal("same-node migration should be a free no-op")
	}
}

func TestPickNode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DRAMNodes = []int{10, 50}
	cfg.PMNodes = []int{20}
	s := NewSystem(sim.NewClock(), cfg)
	if got := s.PickNode(TierDRAM); got != 1 {
		t.Fatalf("PickNode chose %d, want 1 (more free)", got)
	}
	// Exhaust all of DRAM.
	for s.TierFree(TierDRAM) > 0 {
		if s.AllocOn(0, true) == nil && s.AllocOn(1, true) == nil {
			break
		}
	}
	if got := s.PickNode(TierDRAM); got != NoNode {
		t.Fatalf("PickNode on full tier = %d, want NoNode", got)
	}
}

func TestWatermarkOrdering(t *testing.T) {
	f := func(frames uint16) bool {
		n := int(frames%10000) + 2
		wm := watermarks(n)
		return wm.Min >= 1 && wm.Min < wm.Low && wm.Low < wm.High
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWatermarkPressureSignals(t *testing.T) {
	s := testSystem(1000, 1000)
	n := s.Nodes[0]
	if n.UnderLow() || n.UnderHigh() || n.UnderMin() {
		t.Fatal("fresh node under pressure")
	}
	for n.FreeFrames() >= n.WM.Low {
		s.AllocOn(0, true)
	}
	if !n.UnderLow() || !n.UnderHigh() {
		t.Fatal("node below low watermark not flagged")
	}
}

// Property: alloc/free sequences never lose or duplicate frames.
func TestFrameConservationProperty(t *testing.T) {
	f := func(ops []bool, seed uint64) bool {
		s := testSystem(32, 32)
		rng := sim.NewRNG(seed)
		var live []*Page
		for _, alloc := range ops {
			if alloc || len(live) == 0 {
				if pg := s.Alloc(DefaultOrder()); pg != nil {
					live = append(live, pg)
				}
			} else {
				i := rng.Intn(len(live))
				s.Free(live[i])
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			used := s.Nodes[0].UsedFrames() + s.Nodes[1].UsedFrames()
			if used != len(live) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCountersReport(t *testing.T) {
	s := testSystem(10, 10)
	s.Counters.Reads[TierDRAM] = 75
	s.Counters.Reads[TierPM] = 25
	if got := s.Counters.DRAMHitRatio(); got != 0.75 {
		t.Fatalf("DRAMHitRatio = %v, want 0.75", got)
	}
	if got := s.Counters.TotalAccesses(); got != 100 {
		t.Fatalf("TotalAccesses = %d", got)
	}
	if s.Counters.String() == "" {
		t.Fatal("empty report")
	}
	var zero Counters
	if zero.DRAMHitRatio() != 0 {
		t.Fatal("zero counters hit ratio")
	}
}

func TestLatencyModelDefaults(t *testing.T) {
	m := testSystem(1, 1).Lat
	if m.Read[TierPM] <= m.Read[TierDRAM] {
		t.Fatal("PM reads must be slower than DRAM")
	}
	if m.Write[TierPM] <= m.Read[TierPM] {
		t.Fatal("PM writes must be slower than PM reads (asymmetric)")
	}
	if m.AccessCost(TierDRAM, false) != m.Read[TierDRAM] {
		t.Fatal("AccessCost read")
	}
	if m.AccessCost(TierPM, true) != m.Write[TierPM] {
		t.Fatal("AccessCost write")
	}
	if m.PageCopy[TierPM][TierDRAM] <= m.PageCopy[TierDRAM][TierDRAM] {
		t.Fatal("PM-involved copies must cost more")
	}
}

// TestTwoTierSpecTakesItsOwnCosts: every hierarchy's model is its tier specs
// over the calibrated scalar costs. A two-tier dram/cxl machine used to be
// charged the default dram/pm arrays (they happened to have two entries),
// and a Config without a latency model got no scalar costs at all.
func TestTwoTierSpecTakesItsOwnCosts(t *testing.T) {
	dram, _ := BuiltinTierSpec("dram")
	cxl, _ := BuiltinTierSpec("cxl")
	dram.Nodes, cxl.Nodes = []int{8}, []int{8}
	s := NewSystem(sim.NewClock(), Config{Topology: &Topology{Tiers: []TierSpec{dram, cxl}}})
	if s.Lat.Read[1] != cxl.Read || s.Lat.Write[1] != cxl.Write || s.Lat.PageCopy[0][1] != cxl.CopyCost {
		t.Fatalf("cxl tier costs read %v write %v copy %v, want the cxl spec's %v/%v/%v",
			s.Lat.Read[1], s.Lat.Write[1], s.Lat.PageCopy[0][1], cxl.Read, cxl.Write, cxl.CopyCost)
	}
	if s.Lat.MinorFault != testSystem(1, 1).Lat.MinorFault {
		t.Fatal("scalar costs differ from the default pair's")
	}
}

func TestAllocBlockOn(t *testing.T) {
	s := testSystem(2048, 1024)
	pg := s.AllocBlockOn(0, MaxOrder, false)
	if pg == nil || pg.Order != MaxOrder || pg.Frames() != 512 {
		t.Fatal("huge block allocation")
	}
	if !pg.IsHuge() {
		t.Fatal("IsHuge")
	}
	if s.Counters.Allocs[TierDRAM] != 512 {
		t.Fatal("frame-weighted alloc counter")
	}
	if s.Nodes[0].FreeFrames() != 2048-512 {
		t.Fatal("free accounting")
	}
	s.Free(pg)
	if s.Nodes[0].FreeFrames() != 2048 || s.Counters.Frees[TierDRAM] != 512 {
		t.Fatal("huge free accounting")
	}
}

// TestSplitRecyclesCompoundDescriptor: a split releases the compound
// descriptor like Free does, so a later birth reissues it under a new Seq
// instead of the slab stranding it.
func TestSplitRecyclesCompoundDescriptor(t *testing.T) {
	s := testSystem(2048, 1024)
	huge := s.AllocBlockOn(0, MaxOrder, false)
	seq := huge.Seq
	huge.SetFlags(FlagIsolated)
	bases := s.Split(huge)
	if len(bases) != 512 {
		t.Fatalf("split into %d pages, want 512", len(bases))
	}
	for _, bp := range bases {
		if bp == huge {
			t.Fatal("a base page took the compound descriptor it was split from")
		}
		s.Free(bp)
	}
	for i := 0; i < 2000; i++ {
		pg := s.AllocOn(0, false)
		if pg == nil {
			t.Fatalf("birth %d failed", i)
		}
		if pg == huge {
			if pg.Seq == seq || pg.IsHuge() || pg.Node != 0 {
				t.Fatalf("reissued compound descriptor: seq %d (was %d), order %d, node %d", pg.Seq, seq, pg.Order, pg.Node)
			}
			return
		}
		if i%2 == 1 {
			s.Free(pg)
		}
	}
	t.Fatal("2 000 births never reissued the split compound descriptor")
}

func TestAllocBlockOnReserve(t *testing.T) {
	s := testSystem(600, 64)
	// 600 frames: one 512-block exists; non-emergency must respect the
	// min reserve relative to the block size.
	n := s.Nodes[0]
	for n.FreeFrames() > n.WM.Min+511 {
		if s.AllocOn(0, false) == nil {
			break
		}
	}
	if s.AllocBlockOn(0, MaxOrder, false) != nil {
		t.Fatal("huge alloc dipped into reserve")
	}
}

func TestMigrateHugeCountsFrames(t *testing.T) {
	s := testSystem(1024, 1024)
	pg := s.AllocBlockOn(1, MaxOrder, false)
	pg.SetFlags(FlagIsolated)
	res := s.Migrate(pg, 0)
	if !res.OK {
		t.Fatal("huge migration failed")
	}
	if s.Counters.Promotions != 512 {
		t.Fatalf("promotions = %d, want 512", s.Counters.Promotions)
	}
	if res.Cost < 512*s.Lat.PageCopy[TierPM][TierDRAM] {
		t.Fatal("huge copy cost")
	}
}
