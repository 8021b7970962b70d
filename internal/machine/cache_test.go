package machine

import (
	"testing"

	"multiclock/internal/mem"
	"multiclock/internal/pagetable"
	"multiclock/internal/sim"
)

// cachedMachine builds a machine with a tiny CPU cache for deterministic
// hit/miss sequences.
func cachedMachine(capacity int) *Machine {
	cfg := DefaultConfig()
	cfg.Mem.DRAMNodes = []int{512}
	cfg.Mem.PMNodes = []int{512}
	cfg.OpCost = 0
	cfg.CPUCachePages = capacity
	return New(cfg, &nullPolicy{})
}

func TestCacheHitCostsCacheLatency(t *testing.T) {
	m := cachedMachine(4)
	as := m.NewSpace()
	v := as.Mmap(8, false, "x")
	m.Access(as, v.Start, false) // fault + miss
	before := m.Clock.Now()
	m.Access(as, v.Start, false) // hit
	if got := sim.Duration(m.Clock.Now() - before); got != m.Mem.Lat.CacheHit {
		t.Fatalf("cache hit cost %v, want %v", got, m.Mem.Lat.CacheHit)
	}
	if m.Mem.Counters.CacheFiltered != 1 {
		t.Fatal("filtered counter")
	}
	// Filtered accesses do not count as memory reads.
	if m.Mem.Counters.Reads[mem.TierDRAM] != 1 {
		t.Fatalf("DRAM reads = %d, want 1", m.Mem.Counters.Reads[mem.TierDRAM])
	}
}

func TestCacheLRUEviction(t *testing.T) {
	m := cachedMachine(2)
	as := m.NewSpace()
	v := as.Mmap(3, false, "x")
	a, b, c := v.Start, v.Start+1, v.Start+2
	m.Access(as, a, false) // cache: [a]
	m.Access(as, b, false) // cache: [b a]
	m.Access(as, c, false) // evicts a: [c b]
	before := m.Mem.Counters.Reads[mem.TierDRAM]
	m.Access(as, a, false) // miss again
	if m.Mem.Counters.Reads[mem.TierDRAM] != before+1 {
		t.Fatal("evicted page should miss")
	}
	before = m.Mem.Counters.Reads[mem.TierDRAM]
	m.Access(as, c, false) // still cached
	if m.Mem.Counters.Reads[mem.TierDRAM] != before {
		t.Fatal("resident page should hit")
	}
}

func TestCacheInvalidationOnMigrate(t *testing.T) {
	m := cachedMachine(8)
	as := m.NewSpace()
	v := as.Mmap(1, false, "x")
	pg := m.Access(as, v.Start, false)
	m.Access(as, v.Start, false) // cached
	if !m.MigratePage(pg, m.Mem.TierNodes(mem.TierPM)[0]) {
		t.Fatal("migration failed")
	}
	reads := m.Mem.Counters.Reads[mem.TierPM]
	m.Access(as, v.Start, false)
	if m.Mem.Counters.Reads[mem.TierPM] != reads+1 {
		t.Fatal("migrated page served from stale cache")
	}
}

func TestCacheHugePagesCachePerFrame(t *testing.T) {
	m := cachedMachine(4)
	as := m.NewSpace()
	v := as.MmapHuge(512, "huge")
	m.Access(as, v.Start, false) // fault whole region; vpn 0 cached
	reads := m.Mem.Counters.Reads[mem.TierDRAM]
	m.Access(as, v.Start+100, false) // same descriptor, different frame
	if m.Mem.Counters.Reads[mem.TierDRAM] != reads+1 {
		t.Fatal("huge page cached by descriptor, not frame")
	}
	reads = m.Mem.Counters.Reads[mem.TierDRAM]
	m.Access(as, v.Start+100, false) // now frame-cached
	if m.Mem.Counters.Reads[mem.TierDRAM] != reads {
		t.Fatal("frame-level hit missing")
	}
}

func TestAccessNChargesLines(t *testing.T) {
	m := testMachine(64, 64) // cache disabled fixture
	as := m.NewSpace()
	v := as.Mmap(1, false, "x")
	m.Access(as, v.Start, false)
	before := m.Clock.Now()
	m.AccessN(as, v.Start, false, 8)
	want := 8 * m.Mem.Lat.Read[mem.TierDRAM]
	if got := sim.Duration(m.Clock.Now() - before); got != want {
		t.Fatalf("AccessN(8) cost %v, want %v", got, want)
	}
	if m.Mem.Counters.Reads[mem.TierDRAM] != 1+8 {
		t.Fatal("line-weighted read counting")
	}
	// Non-positive clamps to one line.
	before = m.Clock.Now()
	m.AccessN(as, v.Start, false, 0)
	if got := sim.Duration(m.Clock.Now() - before); got != m.Mem.Lat.Read[mem.TierDRAM] {
		t.Fatalf("AccessN(0) cost %v", got)
	}
}

func TestAbsorbTax(t *testing.T) {
	m := testMachine(64, 64)
	m.chargeDirect(5 * sim.Microsecond)
	before := m.Clock.Now()
	m.AbsorbTax()
	if got := sim.Duration(m.Clock.Now() - before); got != 5*sim.Microsecond {
		t.Fatalf("AbsorbTax advanced %v", got)
	}
	// Idempotent when empty.
	before = m.Clock.Now()
	m.AbsorbTax()
	if m.Clock.Now() != before {
		t.Fatal("empty AbsorbTax advanced time")
	}
}

func TestSwapInChargesMajorFault(t *testing.T) {
	m := testMachine(64, 64)
	as := m.NewSpace()
	v := as.Mmap(1, false, "x")
	pg := m.Access(as, v.Start, false)
	m.Vecs[pg.Node].Isolate(pg)
	m.SwapOut(pg)
	before := m.Clock.Now()
	m.Access(as, v.Start, false)
	if m.Mem.Counters.SwapIns != 1 {
		t.Fatal("swap-in not counted")
	}
	if got := sim.Duration(m.Clock.Now() - before); got < m.Mem.Lat.SwapIn {
		t.Fatalf("major fault cost %v < SwapIn %v", got, m.Mem.Lat.SwapIn)
	}
	if as.Swapped() != 0 {
		t.Fatal("swap residency not cleared")
	}
}

func TestPageCacheUnitInvalidate(t *testing.T) {
	c := newPageCache(4)
	pg1, pg2 := &mem.Page{}, &mem.Page{}
	if c.Touch(pg1, 0) {
		t.Fatal("first touch hit")
	}
	c.Touch(pg1, 1)
	c.Touch(pg2, 0)
	// A cached base frame's hit is AccessN's, so the hint is what says
	// whether one is cached.
	if pg1.CacheHint == 0 {
		t.Fatal("expected hit")
	}
	c.Invalidate(pg1) // removes both sub-frames
	if c.Touch(pg1, 0) || c.Touch(pg1, 1) {
		t.Fatal("invalidated entries hit")
	}
	if pg2.CacheHint == 0 {
		t.Fatal("unrelated entry lost")
	}
	_ = pagetable.HugePages
}

// Invalidating a base page must only touch that page's own residency: the
// compound sub-frame index is keyed per page, so another page's cached huge
// frames are neither scanned nor disturbed.
func TestPageCacheBasePageInvalidateIsPerPage(t *testing.T) {
	c := newPageCache(16)
	huge, base := &mem.Page{}, &mem.Page{}
	for sub := int32(1); sub <= 8; sub++ {
		c.Touch(huge, sub)
	}
	c.Touch(base, 0)
	c.Invalidate(base)
	if len(c.sub) != 1 || len(c.sub[huge]) != 8 {
		t.Fatalf("base-page invalidate disturbed compound residency: %d pages, %d frames", len(c.sub), len(c.sub[huge]))
	}
	for sub := int32(1); sub <= 8; sub++ {
		if !c.Touch(huge, sub) {
			t.Fatalf("huge sub-frame %d lost after unrelated invalidate", sub)
		}
	}
	if c.Touch(base, 0) {
		t.Fatal("invalidated base page still cached")
	}
}

// The per-page residency index must not leak: eviction and invalidation
// prune empty per-page entries so the map tracks only pages with cached
// compound frames.
func TestPageCacheCompoundResidencyPruned(t *testing.T) {
	c := newPageCache(2)
	a, b := &mem.Page{}, &mem.Page{}
	c.Touch(a, 1)
	c.Touch(a, 2)
	c.Touch(b, 1) // capacity 2: evicts a's sub 1
	c.Touch(b, 2) // evicts a's sub 2 — a now has no residency
	if _, ok := c.sub[a]; ok {
		t.Fatalf("evicted page still indexed: %v", c.sub[a])
	}
	c.Invalidate(b)
	if len(c.sub) != 0 {
		t.Fatalf("residency index not empty after invalidate: %v", c.sub)
	}
	if len(c.free) != 2 {
		t.Fatalf("slab slots leaked: %d free, want 2", len(c.free))
	}
}
