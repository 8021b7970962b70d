package lru

import (
	"testing"

	"multiclock/internal/mem"
	"multiclock/internal/sim"
)

// populate adds n anon pages and returns them.
func populate(v *Vec, n int) []*mem.Page {
	pages := make([]*mem.Page, n)
	for i := range pages {
		pages[i] = anonPage()
		v.Add(pages[i])
	}
	return pages
}

func TestScanCycleEmptyVec(t *testing.T) {
	v := NewVec(0)
	stats := v.ScanCycle(1024)
	if stats.Scanned != 0 {
		t.Fatal("scanned pages on empty vec")
	}
}

func TestScanCycleObservesHardwareBits(t *testing.T) {
	v := NewVec(0)
	pages := populate(v, 100)
	// Touch half the pages like the MMU would.
	for i := 0; i < 50; i++ {
		pages[i].Accessed = true
	}
	stats := v.ScanCycle(1000)
	if stats.Referenced != 50 {
		t.Fatalf("Referenced = %d, want 50", stats.Referenced)
	}
	// One observed access: inactive,unref → inactive,ref. No activation yet.
	if stats.Activated != 0 {
		t.Fatalf("Activated = %d, want 0 after single access", stats.Activated)
	}
	for i := 0; i < 50; i++ {
		if !pages[i].Flags.Has(mem.FlagReferenced) {
			t.Fatal("referenced flag missing")
		}
	}
}

func TestScanCycleActivatesOnSecondScan(t *testing.T) {
	v := NewVec(0)
	pages := populate(v, 10)
	for _, pg := range pages {
		pg.Accessed = true
	}
	v.ScanCycle(100)
	for _, pg := range pages {
		pg.Accessed = true
	}
	stats := v.ScanCycle(100)
	if stats.Activated != 10 {
		t.Fatalf("Activated = %d, want 10", stats.Activated)
	}
	for _, pg := range pages {
		if v.KindOf(pg) != ActiveAnon {
			t.Fatalf("page in %v, want active", v.KindOf(pg))
		}
	}
}

// TestScanCycleFullPromotionPipeline verifies that a page accessed in every
// scan window climbs to the promote list in four scans, while untouched
// pages stay inactive: the recency+frequency selection in action.
func TestScanCycleFullPromotionPipeline(t *testing.T) {
	v := NewVec(0)
	hot := populate(v, 8)
	cold := populate(v, 8)
	for round := 0; round < 4; round++ {
		for _, pg := range hot {
			pg.Accessed = true
		}
		v.ScanCycle(1000)
	}
	for _, pg := range hot {
		if v.KindOf(pg) != PromoteAnon {
			t.Fatalf("hot page in %v after 4 hot scans, want promote", v.KindOf(pg))
		}
	}
	for _, pg := range cold {
		if v.KindOf(pg) != InactiveAnon {
			t.Fatalf("cold page in %v, want inactive", v.KindOf(pg))
		}
	}
}

func TestScanCycleDecaysIdlePromotePages(t *testing.T) {
	v := NewVec(0)
	pg := anonPage()
	v.Add(pg)
	for i := 0; i < 4; i++ {
		v.MarkAccessed(pg)
	}
	if v.KindOf(pg) != PromoteAnon {
		t.Fatal("setup: page not on promote list")
	}
	// First idle scan spends the entry's grace reference; the second
	// applies (11) promote → active.
	v.ScanCycle(100)
	stats := v.ScanCycle(100)
	if stats.FromPromote != 1 {
		t.Fatalf("FromPromote = %d, want 1", stats.FromPromote)
	}
	if v.KindOf(pg) != ActiveAnon {
		t.Fatalf("idle promote page in %v, want active", v.KindOf(pg))
	}
}

func TestScanCycleKeepsBusyPromotePages(t *testing.T) {
	v := NewVec(0)
	pg := anonPage()
	v.Add(pg)
	for i := 0; i < 4; i++ {
		v.MarkAccessed(pg)
	}
	pg.Accessed = true // accessed again since entering promote
	v.ScanCycle(100)
	if v.KindOf(pg) != PromoteAnon {
		t.Fatalf("busy promote page in %v, want promote (12)", v.KindOf(pg))
	}
}

func TestScanCycleRespectsBudget(t *testing.T) {
	v := NewVec(0)
	populate(v, 10000)
	stats := v.ScanCycle(1024)
	if stats.Scanned != 1024 {
		t.Fatalf("Scanned = %d, want exactly the 1024-page budget", stats.Scanned)
	}
}

// TestScanCycleBudgetConservedAcrossManyLists pins the budget-conservation
// contract: with one large list and several near-empty ones, the
// per-list quotas must still sum to the batch. The pre-fix code dropped
// the integer-division remainder and then bumped every zero quota to 1,
// scanning up to NumKinds-1 pages over budget per cycle.
func TestScanCycleBudgetConservedAcrossManyLists(t *testing.T) {
	v := NewVec(0)
	pages := populate(v, 1000) // inactive anon
	// One page on each remaining evictable list.
	for i := 0; i < 2; i++ {
		v.MarkAccessed(pages[0]) // → active anon
	}
	for i := 0; i < 4; i++ {
		v.MarkAccessed(pages[1]) // → promote anon
	}
	fi := filePage()
	v.Add(fi) // inactive file
	fa := filePage()
	v.Add(fa)
	for i := 0; i < 2; i++ {
		v.MarkAccessed(fa) // → active file
	}
	fp := filePage()
	v.Add(fp)
	for i := 0; i < 4; i++ {
		v.MarkAccessed(fp) // → promote file
	}
	if got := v.TotalEvictable(); got != 1003 {
		t.Fatalf("setup: evictable = %d, want 1003", got)
	}

	const batch = 8
	stats := v.ScanCycle(batch)
	if stats.Scanned > batch {
		t.Fatalf("Scanned = %d, budget was %d (budget not conserved)", stats.Scanned, batch)
	}
	if stats.Scanned < batch {
		t.Fatalf("Scanned = %d of %d, budget unspent despite 1003 available pages", stats.Scanned, batch)
	}
}

// TestScanCycleFullBudgetUse: the remainder redistribution must spend the
// whole budget whenever enough pages exist, and scan everything (once)
// when the budget exceeds the population.
func TestScanCycleFullBudgetUse(t *testing.T) {
	v := NewVec(0)
	pages := populate(v, 90)
	for i := 0; i < 30; i++ {
		v.MarkAccessed(pages[i])
		v.MarkAccessed(pages[i]) // 30 active, 60 inactive
	}
	// batch < total: exactly batch pages scanned (old code lost the
	// remainder: 7*60/90=4 plus 7*30/90=2 → 6 of 7).
	if got := v.ScanCycle(7).Scanned; got != 7 {
		t.Fatalf("Scanned = %d, want 7", got)
	}
	// batch ≥ total: every page scanned exactly once, never more.
	if got := v.ScanCycle(1000).Scanned; got != 90 {
		t.Fatalf("Scanned = %d, want all 90", got)
	}
}

func TestScanCycleSplitsBudgetProportionally(t *testing.T) {
	v := NewVec(0)
	pages := populate(v, 100)
	// Promote 50 pages to active.
	for i := 0; i < 50; i++ {
		v.MarkAccessed(pages[i])
		v.MarkAccessed(pages[i])
	}
	stats := v.ScanCycle(50)
	// Both lists must get a share (25 each, ±1 rounding).
	if stats.Scanned < 48 || stats.Scanned > 52 {
		t.Fatalf("Scanned = %d, want ≈50", stats.Scanned)
	}
}

func TestCollectPromote(t *testing.T) {
	v := NewVec(0)
	pages := populate(v, 6)
	f := filePage()
	v.Add(f)
	for _, pg := range append(pages[:3:3], f) {
		for i := 0; i < 4; i++ {
			v.MarkAccessed(pg)
		}
	}
	got := v.AppendPromote(nil, -1)
	if len(got) != 4 {
		t.Fatalf("collected %d, want 4", len(got))
	}
	for _, pg := range got {
		if !pg.Flags.Has(mem.FlagIsolated) || pg.OnList() {
			t.Fatal("candidate not isolated")
		}
		if !pg.Flags.Has(mem.FlagPromote) {
			t.Fatal("candidate lost promote flag (needed for putback)")
		}
	}
	if v.Len(PromoteAnon)+v.Len(PromoteFile) != 0 {
		t.Fatal("promote lists not drained")
	}
}

func TestCollectPromoteMax(t *testing.T) {
	v := NewVec(0)
	pages := populate(v, 10)
	for _, pg := range pages {
		for i := 0; i < 4; i++ {
			v.MarkAccessed(pg)
		}
	}
	got := v.AppendPromote(nil, 3)
	if len(got) != 3 {
		t.Fatalf("collected %d, want 3", len(got))
	}
	if v.Len(PromoteAnon) != 7 {
		t.Fatalf("left %d on promote list, want 7", v.Len(PromoteAnon))
	}
}

func TestBalanceActiveEnforcesRatio(t *testing.T) {
	v := NewVec(0)
	pages := populate(v, 100)
	// Make 90 pages active, 10 inactive.
	for i := 0; i < 90; i++ {
		v.MarkAccessed(pages[i])
		v.MarkAccessed(pages[i])
	}
	if v.Len(ActiveAnon) != 90 {
		t.Fatalf("setup: active = %d", v.Len(ActiveAnon))
	}
	moved := v.BalanceActive(1.0, 1000)
	if moved == 0 {
		t.Fatal("nothing deactivated despite 9:1 ratio")
	}
	a, i := v.Len(ActiveAnon), v.Len(InactiveAnon)
	if float64(a) > 1.0*float64(i+1)+1 {
		t.Fatalf("ratio not enforced: active=%d inactive=%d", a, i)
	}
}

func TestBalanceActiveSecondChance(t *testing.T) {
	v := NewVec(0)
	pages := populate(v, 20)
	for _, pg := range pages {
		v.MarkAccessed(pg)
		v.MarkAccessed(pg) // all active
	}
	// All recently referenced via hardware bit: first pass spends bits.
	for _, pg := range pages {
		pg.Accessed = true
	}
	moved := v.BalanceActive(1.0, 20)
	if moved != 0 {
		t.Fatalf("referenced pages deactivated: %d", moved)
	}
	// Second pass with bits spent moves them.
	moved = v.BalanceActive(1.0, 20)
	if moved == 0 {
		t.Fatal("cold active pages kept despite ratio")
	}
}

func TestBalanceActiveBudget(t *testing.T) {
	v := NewVec(0)
	pages := populate(v, 100)
	for _, pg := range pages {
		v.MarkAccessed(pg)
		v.MarkAccessed(pg)
	}
	before := v.Scanned
	v.BalanceActive(0.0, 5)
	if v.Scanned-before > 10 { // 5 per type max
		t.Fatalf("budget exceeded: scanned %d", v.Scanned-before)
	}
}

func TestDemoteCandidatesTakesColdOnly(t *testing.T) {
	v := NewVec(0)
	pages := populate(v, 20)
	// Pages 0-9 hot (hardware bit), 10-19 cold.
	for i := 0; i < 10; i++ {
		pages[i].Accessed = true
	}
	got := v.AppendDemoteCandidates(nil, 20)
	if len(got) != 10 {
		t.Fatalf("candidates = %d, want 10", len(got))
	}
	for _, pg := range got {
		for i := 0; i < 10; i++ {
			if pg == pages[i] {
				t.Fatal("hot page selected for demotion")
			}
		}
		if !pg.Flags.Has(mem.FlagIsolated) {
			t.Fatal("candidate not isolated")
		}
	}
}

func TestDemoteCandidatesSecondChanceForSoftRef(t *testing.T) {
	v := NewVec(0)
	pages := populate(v, 10)
	for _, pg := range pages {
		v.MarkAccessed(pg) // inactive+ref (software flag)
	}
	got := v.AppendDemoteCandidates(nil, 10)
	if len(got) != 0 {
		t.Fatalf("soft-referenced pages demoted: %d", len(got))
	}
	// Their reference was spent; next pass takes them.
	got = v.AppendDemoteCandidates(nil, 10)
	if len(got) != 10 {
		t.Fatalf("second pass candidates = %d, want 10", len(got))
	}
}

func TestDemoteCandidatesMax(t *testing.T) {
	v := NewVec(0)
	populate(v, 50)
	got := v.AppendDemoteCandidates(nil, 7)
	if len(got) != 7 {
		t.Fatalf("candidates = %d, want 7", len(got))
	}
}

func TestDemoteCandidatesCoversFileList(t *testing.T) {
	v := NewVec(0)
	for i := 0; i < 5; i++ {
		v.Add(filePage())
	}
	got := v.AppendDemoteCandidates(nil, 10)
	if len(got) != 5 {
		t.Fatalf("file candidates = %d, want 5", len(got))
	}
}

// TestScanCycleBudgetConservationProperty pins ScanCycle's budget contract
// across adversarial list shapes: for any distribution of pages over the six
// evictable lists and any batch, exactly min(batch, population) pages are
// examined — never more (the remainder hand-out must not over-assign) and
// never fewer (integer division must not strand budget). Every page carries
// a set hardware bit, so each examination observes a reference; a page
// examined twice in one pass (or a mid-pass arrival re-examined) would find
// its bit already cleared and show up as Referenced < Scanned. The stock
// ladder keeps its historical split instead, pinned list by list: a zero
// quota bumped to one page, the remainder dropped.
func TestScanCycleBudgetConservationProperty(t *testing.T) {
	for _, ladder := range []Ladder{MultiClockLadder, StockLadder} {
		rng := sim.NewRNG(0xbadc0de)
		// Adversarial per-list sizes: empty, singletons, tiny, and large-skew
		// shapes that exercise both the remainder loop and the q > lens clamp.
		sizes := []int{0, 0, 1, 1, 2, 3, 5, 17, 200}
		for trial := 0; trial < 200; trial++ {
			v := NewVec(0)
			v.Ladder = ladder
			total := 0
			// Shape the six evictable lists: anon and file ladders, each with
			// inactive / active / promote populations (active on the stock
			// ladder, which has no promote list).
			for _, file := range []bool{false, true} {
				for rung := 0; rung < 3; rung++ {
					n := sizes[rng.Intn(len(sizes))]
					total += n
					for i := 0; i < n; i++ {
						var pg *mem.Page
						if file {
							pg = filePage()
						} else {
							pg = anonPage()
						}
						v.Add(pg)
						// 0 MarkAccessed keeps it inactive; 2 makes it
						// active; 4 climbs to promote.
						for j := 0; j < 2*rung; j++ {
							v.MarkAccessed(pg)
						}
					}
				}
			}
			if got := v.TotalEvictable(); got != total {
				t.Fatalf("%s trial %d: setup placed %d evictable pages, want %d", ladderNames[ladder], trial, got, total)
			}
			// Every page referenced: transitions fire mid-pass (activations,
			// promote retentions) while the budget must still hold exactly.
			var lens [Unevictable]int
			for k := Kind(0); k < Unevictable; k++ {
				lens[k] = v.Len(k)
				for pg := v.List(k).Back(); pg != nil; pg = pg.Prev() {
					pg.Accessed = true
				}
			}
			batch := 0
			switch rng.Intn(5) {
			case 0:
				batch = 1
			case 1:
				batch = total + 1 + rng.Intn(10) // over-budget: full single pass
			case 2:
				batch = total // exact cover
			case 3:
				if total > 0 {
					batch = 1 + rng.Intn(total) // partial
				}
			case 4:
				batch = rng.Intn(2 * (total + 1))
			}
			want := min(batch, total)
			if batch <= 0 {
				want = 0
			}
			if ladder == StockLadder && total > 0 && batch > 0 {
				want = 0
				quotas := v.quotas(&lens, total, batch)
				for k, n := range lens {
					q := 0
					if n > 0 {
						q = min(max(batch*n/total, 1), n)
					}
					if quotas[k] != q {
						t.Fatalf("stock trial %d: %v quota %d of %d pages at batch %d, total %d; the historical split gives %d",
							trial, Kind(k), quotas[k], n, batch, total, q)
					}
					want += q
				}
			}
			stats := v.ScanCycle(batch)
			if stats.Scanned != want {
				t.Fatalf("%s trial %d: Scanned = %d, want %d (batch=%d, total=%d)",
					ladderNames[ladder], trial, stats.Scanned, want, batch, total)
			}
			if stats.Referenced != stats.Scanned {
				t.Fatalf("%s trial %d: Referenced = %d != Scanned = %d — a page was examined twice in one pass",
					ladderNames[ladder], trial, stats.Referenced, stats.Scanned)
			}
			if got := v.TotalEvictable(); got != total {
				t.Fatalf("%s trial %d: population %d after scan, want %d (page leaked)", ladderNames[ladder], trial, got, total)
			}
			if _, err := v.CheckConsistency(); err != nil {
				t.Fatalf("%s trial %d: %v", ladderNames[ladder], trial, err)
			}
		}
	}
}

func TestScanStatsAdd(t *testing.T) {
	a := ScanStats{Scanned: 1, Referenced: 2, Activated: 3, ToPromote: 4, FromPromote: 5}
	b := a
	a.Add(b)
	if a.Scanned != 2 || a.Referenced != 4 || a.Activated != 6 || a.ToPromote != 8 || a.FromPromote != 10 {
		t.Fatalf("Add: %+v", a)
	}
}
