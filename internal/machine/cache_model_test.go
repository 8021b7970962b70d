package machine

import (
	"fmt"
	"slices"
	"testing"

	"multiclock/internal/mem"
	"multiclock/internal/pagetable"
	"multiclock/internal/sim"
)

// refLRU is the CPU-cache model written the obvious way: a slice of cached
// (page, sub-frame) units, most recent first, searched linearly.
type refLRU struct {
	cap          int
	keys         []cacheKey
	hits, misses int64
}

func (r *refLRU) touch(k cacheKey) bool {
	if i := slices.Index(r.keys, k); i >= 0 {
		r.hits++
		r.keys = slices.Insert(slices.Delete(r.keys, i, i+1), 0, k)
		return true
	}
	r.misses++
	r.keys = slices.Insert(r.keys, 0, k)
	if len(r.keys) > r.cap {
		r.keys = r.keys[:r.cap]
	}
	return false
}

func (r *refLRU) invalidate(pg *mem.Page) {
	r.keys = slices.DeleteFunc(r.keys, func(k cacheKey) bool { return k.pg == pg })
}

// order lists the cache's units from the front, and checks on the way that
// the back links, the free slots and every base frame's hint agree with it.
func (c *pageCache) order() ([]cacheKey, error) {
	var keys []cacheKey
	prev := int32(-1)
	for idx := c.head; idx >= 0; idx = c.nodes[idx].next {
		n := c.nodes[idx]
		if n.prev != prev {
			return nil, fmt.Errorf("slot %d links back to %d, want %d", idx, n.prev, prev)
		}
		if n.key.sub == 0 && n.key.pg.CacheHint != idx+1 {
			return nil, fmt.Errorf("slot %d holds a page hinting %d", idx, n.key.pg.CacheHint)
		}
		if n.key.sub != 0 && c.sub[n.key.pg][n.key.sub] != idx {
			return nil, fmt.Errorf("slot %d missing from the sub-frame index", idx)
		}
		keys = append(keys, n.key)
		prev = idx
	}
	if c.tail != prev {
		return nil, fmt.Errorf("tail %d, list ends at %d", c.tail, prev)
	}
	if len(keys)+len(c.free) != c.cap {
		return nil, fmt.Errorf("%d cached + %d free != %d slots", len(keys), len(c.free), c.cap)
	}
	return keys, nil
}

// TestCacheMatchesReferenceLRU drives AccessN over seeded streams of base
// pages and THP sub-frames (sub-frame 0 included, which goes through the
// hint like a base page), re-touching recent pages often so that depth-0
// and depth-1 hits dominate as they do on gapbs-pr, with MigratePage, Unmap
// and SwapOut mixed in. After every step the machine's cache must agree with
// refLRU: the access's hit or miss, Hits, Misses, Counters.CacheFiltered and
// the whole LRU order.
func TestCacheMatchesReferenceLRU(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { checkCacheAgainstReference(t, seed, 3000) })
	}
}

func checkCacheAgainstReference(t *testing.T, seed uint64, steps int) {
	const capacity = 8
	cfg := DefaultConfig()
	cfg.Mem.DRAMNodes = []int{4096}
	cfg.Mem.PMNodes = []int{8192}
	cfg.OpCost = 0
	cfg.CPUCachePages = capacity
	m := New(cfg, &nullPolicy{})
	as := m.NewSpace()
	base := as.Mmap(24, false, "base")
	huge := as.MmapHuge(2*pagetable.HugePages, "huge")
	var vpns []pagetable.VPN
	for i := 0; i < base.Pages(); i++ {
		vpns = append(vpns, base.Start+pagetable.VPN(i))
	}
	for _, region := range []pagetable.VPN{0, pagetable.HugePages} {
		for _, sub := range []pagetable.VPN{0, 1, 2, 100, pagetable.HugePages - 1} {
			vpns = append(vpns, huge.Start+region+sub)
		}
	}
	other := map[mem.Tier]mem.NodeID{
		mem.TierDRAM: m.Mem.TierNodes(mem.TierPM)[0],
		mem.TierPM:   m.Mem.TierNodes(mem.TierDRAM)[0],
	}

	rng := sim.NewRNG(seed)
	ref := &refLRU{cap: capacity}
	var filtered int64
	var recent []pagetable.VPN
	var accessHits int
	for step := 0; step < steps; step++ {
		var op string
		pick := vpns[rng.Intn(len(vpns))]
		switch k := rng.Intn(100); {
		case k < 5:
			pg := as.Lookup(pick)
			if pg == nil {
				continue
			}
			op = fmt.Sprintf("migrate %#x", pick)
			if m.MigratePage(pg, other[m.Mem.Tier(pg)]) {
				ref.invalidate(pg)
			}
		case k < 8:
			op = fmt.Sprintf("unmap %#x", pick)
			if pg := as.Lookup(pick); pg != nil {
				ref.invalidate(pg)
			}
			m.Unmap(as, pick)
		case k < 11:
			pg := as.Lookup(pick)
			if pg == nil {
				continue
			}
			op = fmt.Sprintf("swap out %#x", pick)
			m.Vecs[pg.Node].Isolate(pg)
			m.SwapOut(pg)
			ref.invalidate(pg)
		default:
			vpn := pick
			if len(recent) > 0 && k < 70 {
				vpn = recent[rng.Intn(len(recent))]
			}
			lines := 1 + rng.Intn(3)
			op = fmt.Sprintf("access %#x ×%d", vpn, lines)
			before := m.Mem.Counters.CacheFiltered
			pg := m.AccessN(as, vpn, rng.Intn(4) == 0, lines)
			var sub int32
			if pg.IsHuge() {
				sub = int32(vpn % pagetable.HugePages)
			}
			want := ref.touch(cacheKey{pg, sub})
			if want {
				filtered += int64(lines)
				accessHits++
			}
			if got := m.Mem.Counters.CacheFiltered - before; got != 0 != want {
				t.Fatalf("seed %d step %d (%s): filtered %d lines, reference hit=%v", seed, step, op, got, want)
			}
			recent = append(recent, vpn)
			if len(recent) > 2 {
				recent = recent[1:]
			}
		}
		c := m.cache
		if c.Hits != ref.hits || c.Misses != ref.misses {
			t.Fatalf("seed %d step %d (%s): %d hits %d misses, reference %d and %d", seed, step, op, c.Hits, c.Misses, ref.hits, ref.misses)
		}
		if m.Mem.Counters.CacheFiltered != filtered {
			t.Fatalf("seed %d step %d (%s): CacheFiltered %d, reference %d", seed, step, op, m.Mem.Counters.CacheFiltered, filtered)
		}
		got, err := c.order()
		if err != nil {
			t.Fatalf("seed %d step %d (%s): %v", seed, step, op, err)
		}
		if !slices.Equal(got, ref.keys) {
			t.Fatalf("seed %d step %d (%s): LRU order %v\nreference %v", seed, step, op, got, ref.keys)
		}
	}
	if accessHits < steps/4 || ref.misses < int64(steps/20) {
		t.Fatalf("seed %d: %d hits and %d misses in %d steps; the stream should mix both", seed, accessHits, ref.misses, steps)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
