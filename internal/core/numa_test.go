package core

// NUMA coverage: the paper's testbed is a dual-socket machine where each
// socket contributes a DRAM node and (hot-plugged via DAX-KMEM) a PM node
// (§IV, §V-A); MULTI-CLOCK runs one kpromoted per node. These tests
// exercise the multi-node paths.

import (
	"testing"

	"multiclock/internal/machine"
	"multiclock/internal/mem"
	"multiclock/internal/pagetable"
	"multiclock/internal/policy"
	"multiclock/internal/sim"
)

func numaMachine(dram, pm []int, cfg Config) (*machine.Machine, *MultiClock) {
	mc := New(cfg)
	mcfg := machine.DefaultConfig()
	mcfg.Mem.DRAMNodes = dram
	mcfg.Mem.PMNodes = pm
	mcfg.OpCost = 0
	mcfg.CPUCachePages = 0
	m := machine.New(mcfg, mc)
	return m, mc
}

func TestNUMATopologyConstruction(t *testing.T) {
	m, mc := numaMachine([]int{256, 256}, []int{1024, 1024}, DefaultConfig())
	if len(m.Mem.Nodes) != 4 {
		t.Fatalf("nodes = %d, want 4", len(m.Mem.Nodes))
	}
	if len(mc.Daemons()) != 4 {
		t.Fatalf("kpromoted threads = %d, want one per node (§IV)", len(mc.Daemons()))
	}
	if got := m.Mem.TierCapacity(mem.TierDRAM); got != 512 {
		t.Fatalf("DRAM capacity %d", got)
	}
	if ids := m.Mem.TierNodes(mem.TierPM); len(ids) != 2 {
		t.Fatalf("PM nodes %v", ids)
	}
}

func TestNUMAAllocationSpillsAcrossNodes(t *testing.T) {
	m, _ := numaMachine([]int{64, 64}, []int{512}, DefaultConfig())
	as := m.NewSpace()
	v := as.Mmap(100, false, "spill")
	for i := 0; i < 100; i++ {
		m.Access(as, v.Start+pagetable.VPN(i), false)
	}
	// Both DRAM nodes should hold pages before any PM is used.
	if m.Mem.Nodes[0].UsedFrames() == 0 || m.Mem.Nodes[1].UsedFrames() == 0 {
		t.Fatalf("allocation did not spill across DRAM nodes: %d/%d used",
			m.Mem.Nodes[0].UsedFrames(), m.Mem.Nodes[1].UsedFrames())
	}
}

// TestNUMAPromotionFromBothPMNodes: hot pages resident on either PM node
// must be promoted, and promotions target the DRAM node with headroom.
func TestNUMAPromotionFromBothPMNodes(t *testing.T) {
	m, _ := numaMachine([]int{128, 128}, []int{512, 512}, DefaultConfig())
	as := m.NewSpace()
	v := as.Mmap(700, false, "data")
	for i := 0; i < 700; i++ {
		m.Access(as, v.Start+pagetable.VPN(i), false)
	}
	// Find hot candidates on each PM node.
	perNode := map[mem.NodeID][]pagetable.VPN{}
	as.WalkVMA(v, func(vpn pagetable.VPN, pg *mem.Page) {
		if m.Mem.Tier(pg) == mem.TierPM && len(perNode[pg.Node]) < 8 {
			perNode[pg.Node] = append(perNode[pg.Node], vpn)
		}
	})
	if len(perNode) < 2 {
		t.Skipf("overflow landed on %d PM nodes only", len(perNode))
	}
	var hot []pagetable.VPN
	for _, vpns := range perNode {
		hot = append(hot, vpns...)
	}
	for round := 0; round < 10; round++ {
		for _, vpn := range hot {
			m.Access(as, vpn, false)
		}
		m.Compute(1100 * sim.Millisecond)
	}
	promoted := 0
	for _, vpn := range hot {
		if pg := as.Lookup(vpn); pg != nil && m.Mem.Tier(pg) == mem.TierDRAM {
			promoted++
		}
	}
	if promoted < len(hot)*3/4 {
		t.Fatalf("promoted %d/%d across PM nodes", promoted, len(hot))
	}
}

// TestNUMADemotionPerNode: pressure on one DRAM node demotes from that
// node without disturbing the other.
func TestNUMADemotionPerNode(t *testing.T) {
	m, mc := numaMachine([]int{128, 128}, []int{1024}, DefaultConfig())
	as := m.NewSpace()
	// Fill node 0 directly via the allocator, then trigger its pressure.
	for m.Mem.Nodes[0].FreeFrames() > m.Mem.Nodes[0].WM.Min {
		pg := m.Mem.AllocOn(0, false)
		if pg == nil {
			break
		}
		m.Vecs[0].Add(pg)
	}
	used1 := m.Mem.Nodes[1].UsedFrames()
	mc.Pressure(0)
	if m.Mem.Counters.Demotions == 0 {
		t.Fatal("no demotions from the pressured node")
	}
	if m.Mem.Nodes[1].UsedFrames() != used1 {
		t.Fatal("pressure on node 0 disturbed node 1")
	}
	if m.Mem.Nodes[0].FreeFrames() < m.Mem.Nodes[0].WM.High {
		t.Fatal("node 0 not restored to high watermark")
	}
	_ = as
}

// TestNUMAEndToEndThroughput: on the paper's 2+2 topology MULTI-CLOCK must
// still beat static tiering.
func TestNUMAEndToEndThroughput(t *testing.T) {
	run := func(cfg Config, static bool) float64 {
		var pol machine.Policy
		mc := New(cfg)
		pol = mc
		if static {
			pol = policy.NewStatic()
		}
		mcfg := machine.DefaultConfig()
		mcfg.Mem.DRAMNodes = []int{256, 256}
		mcfg.Mem.PMNodes = []int{2048, 2048}
		mcfg.OpCost = 500 * sim.Nanosecond
		m := machine.New(mcfg, pol)
		as := m.NewSpace()
		v := as.Mmap(3000, false, "w")
		for i := 0; i < 3000; i++ {
			m.Access(as, v.Start+pagetable.VPN(i), false)
		}
		// Skewed steady state: 256 hot pages spread over the VMA. Warm up
		// long enough for the promotion ladder, then measure.
		rng := sim.NewRNG(5)
		const ops = 120000
		step := func() {
			var idx int
			if rng.Intn(10) < 8 {
				idx = rng.Intn(256) * 11 % 3000
			} else {
				idx = rng.Intn(3000)
			}
			m.Access(as, v.Start+pagetable.VPN(idx), rng.Intn(3) == 0)
			m.EndOp()
		}
		for i := 0; i < 2*ops; i++ {
			step()
		}
		start := m.Clock.Now()
		for i := 0; i < ops; i++ {
			step()
		}
		if !static {
			mc.Stop()
		}
		return float64(ops) / sim.Duration(m.Clock.Now()-start).Seconds()
	}
	cfg := DefaultConfig()
	cfg.ScanInterval = 10 * sim.Millisecond
	mcTP := run(cfg, false)
	stTP := run(cfg, true)
	if mcTP <= stTP {
		t.Fatalf("NUMA multiclock %.0f ≤ static %.0f", mcTP, stTP)
	}
}
