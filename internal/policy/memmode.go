package policy

import (
	"multiclock/internal/machine"
	"multiclock/internal/mem"
	"multiclock/internal/sim"
)

// MemoryMode models persistent memory in Memory-mode (§II-B): the system
// recognizes only PM as memory; DRAM is invisible to the OS and acts as a
// direct-mapped cache in front of PM, managed by the memory controller.
// Pages are therefore born in PM only, never migrate, and each access hits
// or misses the DRAM cache.
//
// The cache is modelled at page granularity, which matches the simulator's
// access granularity; the determining behaviour — hits at DRAM speed,
// misses at PM speed plus fill traffic, hot sets larger than DRAM thrash —
// is preserved.
type MemoryMode struct {
	machine.Base

	// tags[set] is the frame cached in each direct-mapped set (keyed by a
	// compact per-page cache key), or -1.
	tags  []int64
	dirty []bool

	// backing is the tier whose latency misses are charged at: the tier
	// directly below the cache (PM in the default hierarchy).
	backing mem.Tier

	Hits, Misses int64
	Writebacks   int64
}

// NewMemoryMode returns the Memory-mode baseline.
func NewMemoryMode() *MemoryMode { return &MemoryMode{} }

// Name implements machine.Policy.
func (mm *MemoryMode) Name() string { return "memory-mode" }

// Attach sizes the cache to the capacity of the machine's fastest tier
// (the tier the memory controller hides behind the cache).
func (mm *MemoryMode) Attach(m *machine.Machine) {
	mm.Base.Attach(m)
	fastest := m.Mem.FastestTier()
	sets := m.Mem.TierCapacity(fastest)
	if sets == 0 {
		panic("policy: Memory-mode needs a fast tier to use as cache")
	}
	var ok bool
	if mm.backing, ok = m.Mem.Below(fastest); !ok {
		panic("policy: Memory-mode needs a tier below the cache tier")
	}
	mm.tags = make([]int64, sets)
	for i := range mm.tags {
		mm.tags[i] = -1
	}
	mm.dirty = make([]bool, sets)
}

// AllocOrder hides the cache tier from the system: pages are born in every
// tier below it (PM only, in the default hierarchy).
func (mm *MemoryMode) AllocOrder() []mem.Tier { return mm.M.Mem.BirthOrder()[1:] }

// cacheKey identifies a PM page for tag comparison.
func cacheKey(pg *mem.Page) int64 {
	return int64(pg.Node)<<32 | int64(pg.Frame)
}

// Access implements the direct-mapped near-memory cache: a tag hit is
// served at DRAM latency; a miss pays the PM access plus the fill (and a
// write-back when the displaced page is dirty).
func (mm *MemoryMode) Access(pg *mem.Page, write bool) sim.Duration {
	lat := mm.M.Mem.Lat
	fastest := mm.M.Mem.FastestTier()
	key := cacheKey(pg)
	set := int(uint64(key) % uint64(len(mm.tags)))
	if mm.tags[set] == key {
		mm.Hits++
		if write {
			mm.dirty[set] = true
			return lat.Write[fastest]
		}
		return lat.Read[fastest]
	}
	// Miss: serve from the backing tier and fill the set.
	mm.Misses++
	cost := lat.AccessCost(mm.backing, write)
	if mm.tags[set] >= 0 && mm.dirty[set] {
		// Write the displaced page back to the backing tier.
		mm.Writebacks++
		cost += lat.Write[mm.backing] / 4
	}
	mm.tags[set] = key
	mm.dirty[set] = write
	// Fill traffic: the demand data must also be written into the cache
	// tier before use (memory-mode misses are slower than raw backing-tier
	// reads).
	cost += lat.Write[fastest]
	return cost
}

// PageFreed invalidates any cached copy of the page.
func (mm *MemoryMode) PageFreed(pg *mem.Page) {
	key := cacheKey(pg)
	set := int(uint64(key) % uint64(len(mm.tags)))
	if mm.tags[set] == key {
		mm.tags[set] = -1
		mm.dirty[set] = false
	}
}

// HitRatio reports the DRAM-cache hit fraction.
func (mm *MemoryMode) HitRatio() float64 {
	total := mm.Hits + mm.Misses
	if total == 0 {
		return 0
	}
	return float64(mm.Hits) / float64(total)
}
