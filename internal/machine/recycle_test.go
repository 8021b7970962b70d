package machine

// Descriptor recycling at the machine level (DESIGN.md §7.4): the fault path
// must not trust a descriptor across a pressure episode, and on a machine at
// its high-water mark it must not allocate.

import (
	"testing"

	"multiclock/internal/mem"
	"multiclock/internal/pagetable"
	"multiclock/internal/sim"
	"multiclock/internal/snapcodec"
)

// evictingPolicy reacts to its first armed pressure call the way a policy
// under heavy oversubscription can: it swaps out the page whose birth raised
// the pressure, then splits a cold huge page in the same episode. It sees
// births as an attached observer: a minor fault's OnFault runs before the
// pressure the birth raises.
type evictingPolicy struct {
	Base
	armed            bool
	births           int64
	newborn, evicted *mem.Page
	huge             *mem.Page
}

func (*evictingPolicy) Name() string                                     { return "evicting" }
func (*evictingPolicy) Checkpoint(*snapcodec.Codec, *PageRegistry) error { return nil }

func (*evictingPolicy) OnAccess(*mem.Page, bool, sim.Time)                    {}
func (*evictingPolicy) OnMigrate(*mem.Page, mem.NodeID, mem.NodeID, sim.Time) {}
func (p *evictingPolicy) OnFault(pg *mem.Page, hint bool, _ sim.Time) {
	if !hint {
		p.births++
		p.newborn = pg
	}
}

func (p *evictingPolicy) Pressure(node mem.NodeID) {
	if !p.armed {
		return
	}
	p.armed, p.evicted = false, p.newborn
	for _, pg := range []*mem.Page{p.evicted, p.huge} {
		p.M.Vecs[pg.Node].Isolate(pg)
	}
	p.M.SwapOut(p.evicted)
	p.M.SplitHuge(p.huge)
}

// TestAccessSurvivesRecycledNewborn: a newborn evicted inside its own fault,
// followed by a SplitHuge in the same episode, leaves AccessN holding a
// descriptor that is live again — as the first base page of the split. The
// access must land on the page it asked for, not on that one.
func TestAccessSurvivesRecycledNewborn(t *testing.T) {
	p := &evictingPolicy{}
	cfg := DefaultConfig()
	cfg.Mem.DRAMNodes = []int{600}
	cfg.Mem.PMNodes = []int{64}
	cfg.OpCost = 0
	m := New(cfg, p)
	m.Attach(p)
	as := m.NewSpace()
	thp := as.MmapHuge(pagetable.HugePages, "thp")
	anon := as.Mmap(200, false, "anon")
	p.huge = m.Access(as, thp.Start, false)
	if !p.huge.IsHuge() {
		t.Fatal("huge region did not get a compound page")
	}
	// Fill the node to one birth short of its low watermark.
	dram := m.Mem.Nodes[0]
	next := anon.Start
	for dram.FreeFrames() > dram.WM.Low {
		m.Access(as, next, false)
		next++
	}

	p.armed = true
	faults, before := m.Mem.Counters.MinorFaults, m.Clock.Now()
	pg := m.Access(as, next, true)
	if p.armed {
		t.Fatal("the access raised no pressure; the scenario did not run")
	}
	first := as.Lookup(thp.Start)
	if first != p.evicted {
		t.Fatal("scenario lost its point: the split did not reuse the evicted newborn's descriptor")
	}
	if pg == first || pg.IsHuge() {
		t.Fatal("AccessN returned the split's base page that took over the newborn's descriptor")
	}
	if as.Lookup(next) != pg || pg.VA != next.Addr() || pg.Node == mem.NoNode {
		t.Fatalf("AccessN returned a page at %#x, not the resident page of vpn %#x", pg.VA, next.Addr())
	}
	if !pg.Accessed || !pg.HWDirty || first.HWDirty {
		t.Fatal("the write was applied to the wrong page")
	}
	// One fault was lost to the eviction, one stuck: both counted, both
	// charged (the accounting contract of AccessN's retry loop).
	if got := m.Mem.Counters.MinorFaults - faults; got != 2 {
		t.Fatalf("access took %d faults, want 2", got)
	}
	if p.births != m.Mem.Counters.MinorFaults {
		t.Fatalf("observer saw %d births, machine counted %d minor faults", p.births, m.Mem.Counters.MinorFaults)
	}
	if m.Mem.Counters.SwapOuts != 1 || m.Mem.Counters.SwapIns != 1 || m.Mem.Counters.HugeSplits != 1 {
		t.Fatalf("episode counted %d swap-outs, %d swap-ins, %d splits", m.Mem.Counters.SwapOuts, m.Mem.Counters.SwapIns, m.Mem.Counters.HugeSplits)
	}
	if elapsed := sim.Duration(m.Clock.Now() - before); elapsed < 2*m.Mem.Lat.MinorFault {
		t.Fatalf("access charged %v, less than two minor faults", elapsed)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// faultEvictCycles runs n faults on a machine so full that each of them first
// evicts a page through direct reclaim.
func faultEvictCycles(m *Machine, as *pagetable.AddressSpace, v *pagetable.VMA, next *int, n int) {
	for i := 0; i < n; i++ {
		m.Access(as, v.Start+pagetable.VPN(*next%v.Pages()), *next%5 == 0)
		*next++
	}
}

// TestFaultPathAllocatesNothing: on a warmed, full machine a fault+evict
// cycle — direct reclaim, swap-out, swap-in, rebirth — costs no heap
// allocation: the descriptor is the victim's, swap residency is a bit, the
// allocator's sets are bitmaps.
func TestFaultPathAllocatesNothing(t *testing.T) {
	m := testMachine(96, 160)
	as := m.NewSpace()
	v := as.Mmap(1024, false, "stream")
	next := 0
	// Two laps: every VPN has been swapped out once, so the bitset, the
	// page-table leaves, the LRU rings and the free list have reached size.
	faultEvictCycles(m, as, v, &next, 2*v.Pages())
	before := m.Mem.Counters
	if avg := testing.AllocsPerRun(20, func() { faultEvictCycles(m, as, v, &next, 64) }); avg != 0 {
		t.Fatalf("%v heap allocations per 64 fault+evict cycles, want 0", avg)
	}
	// CLOCK's second chance lets a few pages outlive a lap, so not every
	// access faults; every fault must have evicted.
	faults, swaps := m.Mem.Counters.MinorFaults-before.MinorFaults, m.Mem.Counters.SwapOuts-before.SwapOuts
	if faults < 1000 || swaps != faults {
		t.Fatalf("measured %d faults and %d evictions, want many and as many", faults, swaps)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
