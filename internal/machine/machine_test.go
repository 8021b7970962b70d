package machine

import (
	"testing"

	"multiclock/internal/mem"
	"multiclock/internal/pagetable"
	"multiclock/internal/sim"
)

// nullPolicy is the minimal policy for machine-level tests: static
// placement with base latency.
type nullPolicy struct{ Base }

func (nullPolicy) Name() string { return "null" }

func testMachine(dram, pm int) *Machine {
	cfg := DefaultConfig()
	cfg.Mem.DRAMNodes = []int{dram}
	cfg.Mem.PMNodes = []int{pm}
	cfg.OpCost = 0
	cfg.CPUCachePages = 0
	return New(cfg, &nullPolicy{})
}

func TestNewMachineWiring(t *testing.T) {
	m := testMachine(100, 400)
	if len(m.Vecs) != 2 {
		t.Fatalf("vecs = %d, want 2", len(m.Vecs))
	}
	if m.Clock.Now() != 0 {
		t.Fatal("clock not at zero")
	}
	if m.Policy.Name() != "null" {
		t.Fatal("policy not attached")
	}
}

func TestAccessFaultsInPage(t *testing.T) {
	m := testMachine(100, 400)
	as := m.NewSpace()
	v := as.Mmap(10, false, "heap")

	before := m.Clock.Now()
	pg := m.Access(as, v.Start, false)
	if pg == nil || as.Lookup(v.Start) != pg {
		t.Fatal("fault did not populate the PTE")
	}
	if m.Mem.Counters.MinorFaults != 1 {
		t.Fatal("minor fault not counted")
	}
	if !pg.OnList() {
		t.Fatal("new page not on LRU")
	}
	if m.Mem.Tier(pg) != mem.TierDRAM {
		t.Fatal("page not born in DRAM")
	}
	if !pg.Accessed {
		t.Fatal("hardware bit not set")
	}
	elapsed := sim.Duration(m.Clock.Now() - before)
	want := m.Mem.Lat.MinorFault + m.Mem.Lat.Read[mem.TierDRAM]
	if elapsed != want {
		t.Fatalf("fault+read cost %v, want %v", elapsed, want)
	}
}

func TestAccessChargesTierLatency(t *testing.T) {
	m := testMachine(100, 400)
	as := m.NewSpace()
	v := as.Mmap(1, false, "x")
	m.Access(as, v.Start, false) // fault
	before := m.Clock.Now()
	m.Access(as, v.Start, false)
	if got := sim.Duration(m.Clock.Now() - before); got != m.Mem.Lat.Read[mem.TierDRAM] {
		t.Fatalf("read cost %v, want DRAM read", got)
	}
	before = m.Clock.Now()
	m.Access(as, v.Start, true)
	if got := sim.Duration(m.Clock.Now() - before); got != m.Mem.Lat.Write[mem.TierDRAM] {
		t.Fatalf("write cost %v, want DRAM write", got)
	}
	if m.Mem.Counters.Reads[mem.TierDRAM] != 2 || m.Mem.Counters.Writes[mem.TierDRAM] != 1 {
		t.Fatal("access counters")
	}
}

func TestAccessWriteDirties(t *testing.T) {
	m := testMachine(10, 10)
	as := m.NewSpace()
	v := as.Mmap(1, false, "x")
	pg := m.Access(as, v.Start, true)
	if !pg.Flags.Has(mem.FlagDirty) || !pg.HWDirty {
		t.Fatal("write did not dirty the page")
	}
}

func TestAccessUnmappedPanics(t *testing.T) {
	m := testMachine(10, 10)
	as := m.NewSpace()
	defer func() {
		if recover() == nil {
			t.Fatal("segfault not detected")
		}
	}()
	m.Access(as, 12345, false)
}

func TestFileVMAPagesAreFileBacked(t *testing.T) {
	m := testMachine(10, 10)
	as := m.NewSpace()
	v := as.Mmap(1, true, "file")
	pg := m.Access(as, v.Start, false)
	if !pg.IsFile() {
		t.Fatal("file VMA produced anonymous page")
	}
}

func TestLockedVMAPagesUnevictable(t *testing.T) {
	m := testMachine(10, 10)
	as := m.NewSpace()
	v := as.Mmap(1, false, "locked")
	v.Locked = true
	pg := m.Access(as, v.Start, false)
	if !pg.Flags.Has(mem.FlagUnevictable) {
		t.Fatal("locked page evictable")
	}
}

func TestHintFaultPath(t *testing.T) {
	m := testMachine(100, 100)
	as := m.NewSpace()
	v := as.Mmap(1, false, "x")
	pg := m.Access(as, v.Start, false)
	pagetable.Poison(pg)
	before := m.Clock.Now()
	m.Access(as, v.Start, false)
	if pg.Flags.Has(mem.FlagPoisoned) {
		t.Fatal("poison not cleared by fault")
	}
	if m.Mem.Counters.HintFaults != 1 {
		t.Fatal("hint fault not counted")
	}
	got := sim.Duration(m.Clock.Now() - before)
	want := m.Mem.Lat.HintFault + m.Mem.Lat.Read[mem.TierDRAM]
	if got != want {
		t.Fatalf("hint fault cost %v, want %v", got, want)
	}
}

func TestSupervisedAccessAdvancesLRU(t *testing.T) {
	m := testMachine(100, 100)
	as := m.NewSpace()
	v := as.Mmap(1, true, "f")
	pg := m.SupervisedAccess(as, v.Start, false)
	if !pg.Flags.Has(mem.FlagReferenced) {
		t.Fatal("supervised access did not mark the page")
	}
	if pg.Accessed {
		t.Fatal("supervised access left the hardware bit for the scanner")
	}
	m.SupervisedAccess(as, v.Start, false)
	if !pg.Flags.Has(mem.FlagActive) {
		t.Fatal("second supervised access did not activate")
	}
}

func TestEndOpThroughput(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mem.DRAMNodes = []int{10}
	cfg.Mem.PMNodes = []int{10}
	cfg.OpCost = 1 * sim.Microsecond
	m := New(cfg, &nullPolicy{})
	for i := 0; i < 1000; i++ {
		m.EndOp()
	}
	if m.Ops != 1000 {
		t.Fatal("ops")
	}
	if got := m.Elapsed(); got != 1*sim.Millisecond {
		t.Fatalf("elapsed %v, want 1ms", got)
	}
	want := 1000 / (1 * sim.Millisecond).Seconds()
	if got := m.Throughput(); got != want {
		t.Fatalf("throughput %v, want %v", got, want)
	}
}

func TestThroughputZeroTime(t *testing.T) {
	m := testMachine(10, 10)
	if m.Throughput() != 0 {
		t.Fatal("throughput at t=0 should be 0")
	}
}

func TestMigratePageMovesBetweenVecs(t *testing.T) {
	m := testMachine(100, 100)
	as := m.NewSpace()
	v := as.Mmap(1, false, "x")
	pg := m.Access(as, v.Start, false)
	pmNode := m.Mem.TierNodes(mem.TierPM)[0]
	if !m.MigratePage(pg, pmNode) {
		t.Fatal("migration failed")
	}
	if pg.Node != pmNode {
		t.Fatal("page not on PM node")
	}
	if m.Vecs[0].TotalEvictable() != 0 || m.Vecs[pmNode].TotalEvictable() != 1 {
		t.Fatal("vecs not updated")
	}
	if !pg.OnList() {
		t.Fatal("page fell off LRU after migration")
	}
	// The migration tax lands on the next access.
	before := m.Clock.Now()
	m.Access(as, v.Start, false)
	got := sim.Duration(m.Clock.Now() - before)
	if got <= m.Mem.Lat.Read[mem.TierPM] {
		t.Fatalf("migration tax not charged: access cost %v", got)
	}
}

func TestMigratePageUnevictableFails(t *testing.T) {
	m := testMachine(100, 100)
	as := m.NewSpace()
	v := as.Mmap(1, false, "x")
	v.Locked = true
	pg := m.Access(as, v.Start, false)
	if m.MigratePage(pg, 1) {
		t.Fatal("migrated an mlocked page")
	}
}

func TestMigratePageFullDestinationRestores(t *testing.T) {
	m := testMachine(100, 3)
	as := m.NewSpace()
	// Fill PM completely.
	pmNode := m.Mem.TierNodes(mem.TierPM)[0]
	for m.Mem.Nodes[pmNode].FreeFrames() > 0 {
		m.Mem.AllocOn(pmNode, true)
	}
	v := as.Mmap(1, false, "x")
	pg := m.Access(as, v.Start, false)
	if m.MigratePage(pg, pmNode) {
		t.Fatal("migration into full node succeeded")
	}
	if !pg.OnList() || pg.Node != 0 {
		t.Fatal("failed migration did not restore the page")
	}
}

func TestUnmapFreesEverything(t *testing.T) {
	m := testMachine(100, 100)
	as := m.NewSpace()
	v := as.Mmap(1, false, "x")
	m.Access(as, v.Start, false)
	used := m.Mem.Nodes[0].UsedFrames()
	m.Unmap(as, v.Start)
	if m.Mem.Nodes[0].UsedFrames() != used-1 {
		t.Fatal("frame not freed")
	}
	if as.Lookup(v.Start) != nil {
		t.Fatal("PTE not cleared")
	}
	if m.Vecs[0].TotalEvictable() != 0 {
		t.Fatal("LRU not cleaned")
	}
	m.Unmap(as, v.Start) // idempotent
}

func TestSwapOutDestroysMapping(t *testing.T) {
	m := testMachine(100, 100)
	as := m.NewSpace()
	v := as.Mmap(1, false, "x")
	pg := m.Access(as, v.Start, false)
	seq := pg.Seq
	m.Vecs[pg.Node].Isolate(pg)
	m.SwapOut(pg)
	if as.Lookup(v.Start) != nil {
		t.Fatal("swapped page still mapped")
	}
	if m.Mem.Counters.SwapOuts != 1 {
		t.Fatal("swap not counted")
	}
	// Re-access faults a fresh page: a new identity, whichever descriptor
	// carries it.
	pg2 := m.Access(as, v.Start, false)
	if pg2.Seq == seq {
		t.Fatal("swap-in reused the page identity")
	}
}

func TestDirectReclaimOnFullMachine(t *testing.T) {
	m := testMachine(16, 16)
	as := m.NewSpace()
	v := as.Mmap(64, false, "big")
	// Touch twice as many pages as the machine has frames: base policy
	// must swap cold pages to keep going.
	for i := 0; i < 64; i++ {
		m.Access(as, v.Start+pagetable.VPN(i), false)
	}
	if m.Mem.Counters.SwapOuts == 0 {
		t.Fatal("no swaps despite oversubscription")
	}
	if m.Mem.Counters.OOMKills != 0 {
		t.Fatal("OOM hit")
	}
}

type recObserver struct {
	accesses, migrations, faults, hints int
}

func (r *recObserver) OnAccess(pg *mem.Page, write bool, now sim.Time) { r.accesses++ }
func (r *recObserver) OnMigrate(pg *mem.Page, from, to mem.NodeID, now sim.Time) {
	r.migrations++
}
func (r *recObserver) OnFault(pg *mem.Page, hint bool, now sim.Time) {
	if hint {
		r.hints++
	} else {
		r.faults++
	}
}

func TestObserverHooks(t *testing.T) {
	m := testMachine(100, 100)
	obs := &recObserver{}
	m.Attach(obs)
	as := m.NewSpace()
	v := as.Mmap(2, false, "x")
	pg := m.Access(as, v.Start, false)
	m.Access(as, v.Start, false)
	pagetable.Poison(pg)
	m.Access(as, v.Start, false)
	m.MigratePage(pg, 1)
	if obs.accesses != 3 || obs.faults != 1 || obs.hints != 1 || obs.migrations != 1 {
		t.Fatalf("observer: %+v", obs)
	}
}

// TestMultiFansOut: every attached observer sees every event.
func TestMultiFansOut(t *testing.T) {
	m := testMachine(128, 128)
	as := m.NewSpace()
	v := as.Mmap(1, false, "x")
	o1, o2 := &recObserver{}, &recObserver{}
	m.Attach(o1)
	m.Attach(o2)
	m.Access(as, v.Start, false)
	if o1.accesses != 1 || o2.accesses != 1 {
		t.Fatal("two attached observers did not both see the access")
	}
}

func TestComputeAdvancesClock(t *testing.T) {
	m := testMachine(10, 10)
	m.Compute(5 * sim.Microsecond)
	if m.Elapsed() != 5*sim.Microsecond {
		t.Fatal("Compute")
	}
}

func TestSpacesRegistry(t *testing.T) {
	m := testMachine(10, 10)
	a := m.NewSpace()
	b := m.NewSpace()
	if a.ID != 0 || b.ID != 1 {
		t.Fatal("space IDs")
	}
	if m.Space(0) != a || m.Space(1) != b || len(m.Spaces()) != 2 {
		t.Fatal("registry")
	}
}
