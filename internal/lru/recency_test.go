package lru

import (
	"testing"

	"multiclock/internal/mem"
)

// stockVec is a vec on the stock CLOCK ladder, as the recency baselines
// attach it.
func stockVec() *Vec {
	v := NewVec(0)
	v.Ladder = StockLadder
	return v
}

func TestStockLadderStopsAtActive(t *testing.T) {
	v := stockVec()
	pg := anonPage()
	v.Add(pg)
	// Access every window: vanilla CLOCK activates but never promotes.
	for round := 0; round < 6; round++ {
		pg.Accessed = true
		v.ScanCycle(100)
	}
	if got := v.KindOf(pg); got != ActiveAnon {
		t.Fatalf("stock ladder ended at %v, want active (no promote list)", got)
	}
	if !pg.Flags.Has(mem.FlagReferenced) {
		t.Fatal("active page should be referenced after hot scans")
	}
}

func TestStockLadderDecay(t *testing.T) {
	v := stockVec()
	pg := anonPage()
	v.Add(pg)
	pg.Accessed = true
	v.ScanCycle(100) // inactive+ref
	if !pg.Flags.Has(mem.FlagReferenced) {
		t.Fatal("reference not recorded")
	}
	v.ScanCycle(100) // idle window: decay
	if pg.Flags.Has(mem.FlagReferenced) {
		t.Fatal("idle window did not decay the reference")
	}
}

func TestStockLadderStats(t *testing.T) {
	v := stockVec()
	pages := populate(v, 20)
	for _, pg := range pages {
		pg.Accessed = true
	}
	s1 := v.ScanCycle(100)
	if s1.Referenced != 20 || s1.Activated != 0 {
		t.Fatalf("first pass stats: %+v", s1)
	}
	for _, pg := range pages {
		pg.Accessed = true
	}
	s2 := v.ScanCycle(100)
	if s2.Activated != 20 {
		t.Fatalf("second pass activations: %+v", s2)
	}
	if s2.ToPromote != 0 || s2.FromPromote != 0 {
		t.Fatal("a stock-ladder scan must not touch promote state")
	}
	if v.ScanCycle(0).Scanned != 0 {
		t.Fatal("zero budget scanned")
	}
}

func TestCollectActiveReferencedSelectsSingleTouch(t *testing.T) {
	v := stockVec()
	pages := populate(v, 10)
	// Activate all.
	for _, pg := range pages {
		pg.Accessed = true
	}
	v.ScanCycle(100)
	for _, pg := range pages {
		pg.Accessed = true
	}
	v.ScanCycle(100)
	// One fresh touch qualifies half of them for Nimble.
	for i := 0; i < 5; i++ {
		pages[i].Accessed = true
	}
	got := v.AppendActiveReferenced(nil, 100, 100)
	// Referenced flags from the activation scan also qualify — the
	// low-selectivity point. At least the 5 freshly touched are taken.
	if len(got) < 5 {
		t.Fatalf("collected %d, want ≥5", len(got))
	}
	for _, pg := range got {
		if !pg.Flags.Has(mem.FlagIsolated) {
			t.Fatal("candidate not isolated")
		}
		if pg.Flags.Has(mem.FlagReferenced) {
			t.Fatal("collection must spend the reference")
		}
	}
}

func TestCollectActiveReferencedBudgets(t *testing.T) {
	v := stockVec()
	pages := populate(v, 50)
	for _, pg := range pages {
		pg.Accessed = true
	}
	v.ScanCycle(200)
	for _, pg := range pages {
		pg.Accessed = true
	}
	v.ScanCycle(200)
	for _, pg := range pages {
		pg.Accessed = true
	}
	if got := v.AppendActiveReferenced(nil, 7, 100); len(got) != 7 {
		t.Fatalf("max budget: collected %d, want 7", len(got))
	}
	// Examination budget also bounds work.
	if got := v.AppendActiveReferenced(nil, 100, 3); len(got) > 3 {
		t.Fatalf("scan budget: collected %d", len(got))
	}
}

func TestClearPromoteRequiresIsolation(t *testing.T) {
	v := NewVec(0)
	pg := anonPage()
	v.Add(pg)
	for i := 0; i < 4; i++ {
		v.MarkAccessed(pg)
	}
	cands := v.AppendPromote(nil, -1)
	if len(cands) != 1 {
		t.Fatal("setup")
	}
	ClearPromote(cands[0])
	if cands[0].Flags.Has(mem.FlagPromote) || !cands[0].Flags.Has(mem.FlagActive) {
		t.Fatal("ClearPromote flags")
	}
	v.Putback(cands[0])
	if v.KindOf(cands[0]) != ActiveAnon {
		t.Fatal("cleared page should land on active")
	}
	// Non-isolated pages are rejected.
	pg2 := anonPage()
	v.Add(pg2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	ClearPromote(pg2)
}

func TestVecListAccessor(t *testing.T) {
	v := NewVec(3)
	pg := anonPage()
	v.Add(pg)
	if v.List(InactiveAnon).Len() != 1 {
		t.Fatal("List accessor")
	}
}
