package mem

import "testing"

// shadowPage allocates a PM page and isolates it, the precondition for the
// shadow migration ops.
func shadowPage(t *testing.T, s *System) *Page {
	t.Helper()
	pm := s.TierNodes(TierPM)[0]
	pg := s.AllocOn(pm, false)
	if pg == nil {
		t.Fatal("PM alloc failed")
	}
	pg.SetFlags(FlagIsolated)
	return pg
}

func TestPromoteWithShadowRetainsSource(t *testing.T) {
	s := testSystem(100, 400)
	pg := shadowPage(t, s)
	srcNode, srcFrame := pg.Node, pg.Frame
	pmFree := s.TierFree(TierPM)

	res := s.PromoteWithShadow(pg, s.TierNodes(TierDRAM)[0])
	if !res.OK {
		t.Fatalf("shadow promotion failed: %+v", res)
	}
	if s.Tier(pg) != TierDRAM {
		t.Fatalf("page on %v, want DRAM", s.Tier(pg))
	}
	if node, frame := s.Shadow(pg); !pg.HasShadow() || node != srcNode || frame != srcFrame {
		t.Fatalf("shadow not retained: node=%d frame=%d", node, frame)
	}
	if s.TierFree(TierPM) != pmFree {
		t.Fatalf("PM free moved from %d to %d — source frame was freed", pmFree, s.TierFree(TierPM))
	}
	if s.ShadowFrames() != 1 {
		t.Fatalf("ShadowFrames = %d, want 1", s.ShadowFrames())
	}
	if s.Counters.Promotions != 1 || s.Counters.ShadowPromotes != 1 {
		t.Fatalf("counters: promotions=%d shadow_promotes=%d", s.Counters.Promotions, s.Counters.ShadowPromotes)
	}
	if res.Cost != s.Lat.PageCopy[TierPM][TierDRAM] {
		t.Fatalf("copy cost %v, want %v", res.Cost, s.Lat.PageCopy[TierPM][TierDRAM])
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDemoteToShadowIsFree(t *testing.T) {
	s := testSystem(100, 400)
	pg := shadowPage(t, s)
	srcNode, srcFrame := pg.Node, pg.Frame
	if !s.PromoteWithShadow(pg, s.TierNodes(TierDRAM)[0]).OK {
		t.Fatal("promotion failed")
	}
	dramFree := s.TierFree(TierDRAM)

	res := s.DemoteToShadow(pg)
	if !res.OK {
		t.Fatalf("shadow demotion failed: %+v", res)
	}
	if res.Cost != 0 {
		t.Fatalf("free demotion charged copy cost %v", res.Cost)
	}
	if pg.Node != srcNode || pg.Frame != srcFrame {
		t.Fatalf("page at (%d,%d), want original shadow (%d,%d)", pg.Node, pg.Frame, srcNode, srcFrame)
	}
	if pg.HasShadow() || s.ShadowFrames() != 0 {
		t.Fatal("shadow state not cleared")
	}
	if s.TierFree(TierDRAM) != dramFree+1 {
		t.Fatal("DRAM frame not freed")
	}
	if s.Counters.Demotions != 1 || s.Counters.ShadowHits != 1 {
		t.Fatalf("counters: demotions=%d shadow_hits=%d", s.Counters.Demotions, s.Counters.ShadowHits)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDropShadowReleasesFrame(t *testing.T) {
	s := testSystem(100, 400)
	pg := shadowPage(t, s)
	if !s.PromoteWithShadow(pg, s.TierNodes(TierDRAM)[0]).OK {
		t.Fatal("promotion failed")
	}
	pmFree := s.TierFree(TierPM)

	s.DropShadow(pg)
	if pg.HasShadow() || s.ShadowFrames() != 0 {
		t.Fatal("shadow not dropped")
	}
	if s.TierFree(TierPM) != pmFree+1 {
		t.Fatal("shadow frame not released")
	}
	if s.Counters.ShadowDrops != 1 {
		t.Fatalf("shadow_drops = %d, want 1", s.Counters.ShadowDrops)
	}
	// Idempotent: dropping again is a no-op.
	s.DropShadow(pg)
	if s.Counters.ShadowDrops != 1 || s.TierFree(TierPM) != pmFree+1 {
		t.Fatal("second DropShadow was not a no-op")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFreeReleasesShadowToo(t *testing.T) {
	s := testSystem(100, 400)
	pg := shadowPage(t, s)
	if !s.PromoteWithShadow(pg, s.TierNodes(TierDRAM)[0]).OK {
		t.Fatal("promotion failed")
	}
	pg.ClearFlags(FlagIsolated)
	s.Free(pg)
	if s.ShadowFrames() != 0 {
		t.Fatal("Free leaked the shadow frame")
	}
	if s.TierFree(TierDRAM) != 100 || s.TierFree(TierPM) != 400 {
		t.Fatalf("frames not fully returned: DRAM %d/100 PM %d/400", s.TierFree(TierDRAM), s.TierFree(TierPM))
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMigrateDropsStaleShadow(t *testing.T) {
	s := testSystem(100, 400)
	pg := shadowPage(t, s)
	if !s.PromoteWithShadow(pg, s.TierNodes(TierDRAM)[0]).OK {
		t.Fatal("promotion failed")
	}
	// A regular migration (here a demotion that cannot use the shadow
	// path) ends the non-exclusive residency.
	if !s.Migrate(pg, s.TierNodes(TierPM)[0]).OK {
		t.Fatal("migration failed")
	}
	if pg.HasShadow() || s.ShadowFrames() != 0 {
		t.Fatal("regular migration kept the shadow")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPromoteWithShadowTransientFailureLeavesPageIntact(t *testing.T) {
	// A full destination node behaves like Migrate's natural failure: the
	// page stays on its source frame with no shadow state.
	s := testSystem(1, 400) // DRAM node so small its frame is gone after one alloc
	dram := s.TierNodes(TierDRAM)[0]
	if s.AllocOn(dram, true) == nil {
		t.Fatal("setup alloc failed")
	}
	pg := shadowPage(t, s)
	srcNode, srcFrame := pg.Node, pg.Frame
	res := s.PromoteWithShadow(pg, dram)
	if res.OK {
		t.Fatal("promotion into a full node succeeded")
	}
	if pg.Node != srcNode || pg.Frame != srcFrame || pg.HasShadow() {
		t.Fatal("failed promotion mutated the page")
	}
	if s.Counters.MigrateFails != 1 {
		t.Fatalf("migrate_fails = %d, want 1", s.Counters.MigrateFails)
	}
}
