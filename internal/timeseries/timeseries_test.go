package timeseries

import (
	"testing"

	"multiclock/internal/machine"
	"multiclock/internal/mem"
	"multiclock/internal/metrics"
	"multiclock/internal/pagetable"
	"multiclock/internal/policy"
	"multiclock/internal/sim"
)

func testMachine(dram, pm int) *machine.Machine {
	cfg := machine.DefaultConfig()
	cfg.Mem.DRAMNodes = []int{dram}
	cfg.Mem.PMNodes = []int{pm}
	cfg.OpCost = 0
	cfg.CPUCachePages = 0
	return machine.New(cfg, policy.NewStatic())
}

// TestWindowsTileTheRun: windows must be contiguous, indexed, and exactly
// cover virtual time; the export must self-validate.
func TestWindowsTileTheRun(t *testing.T) {
	m := testMachine(64, 64)
	s := New(m, 1*sim.Millisecond, 0)
	as := m.NewSpace()
	v := as.Mmap(16, false, "x")
	for i := 0; i < 16; i++ {
		m.Access(as, v.Start+pagetable.VPN(i), false)
		m.Compute(250 * sim.Microsecond)
	}
	ex := s.Export()
	if err := metrics.ValidateSections(nil, ex); err != nil {
		t.Fatalf("series does not validate: %v", err)
	}
	if len(ex.Windows) < 4 {
		t.Fatalf("4ms of work produced %d windows of 1ms", len(ex.Windows))
	}
	if last := ex.Windows[len(ex.Windows)-1]; last.End != int64(m.Clock.Now()) {
		t.Fatalf("trailing partial window ends at %d, clock at %d", last.End, int64(m.Clock.Now()))
	}
}

// TestWindowDeltasSumToTotals: summing each per-window delta across the
// series must reproduce the machine's cumulative counters — windows neither
// lose nor double-count flow.
func TestWindowDeltasSumToTotals(t *testing.T) {
	m := testMachine(32, 64)
	s := New(m, 1*sim.Millisecond, 0)
	as := m.NewSpace()
	v := as.Mmap(24, false, "x")
	pm := m.Mem.TierNodes(mem.TierPM)[0]
	dram := m.Mem.TierNodes(mem.TierDRAM)[0]
	for i := 0; i < 24; i++ {
		pg := m.Access(as, v.Start+pagetable.VPN(i), i%3 == 0)
		m.Compute(300 * sim.Microsecond)
		if i%2 == 0 {
			m.MigratePage(pg, pm)
		} else if i%5 == 0 {
			m.MigratePage(pg, dram)
		}
	}
	var reads, writes, promos, demos int64
	for _, w := range s.Export().Windows {
		reads += w.ReadsDRAM + w.ReadsPM
		writes += w.WritesDRAM + w.WritesPM
		promos += w.Promotions
		demos += w.Demotions
	}
	c := &m.Mem.Counters
	if got := c.Reads[mem.TierDRAM] + c.Reads[mem.TierPM]; reads != got {
		t.Fatalf("windowed reads %d, machine %d", reads, got)
	}
	if got := c.Writes[mem.TierDRAM] + c.Writes[mem.TierPM]; writes != got {
		t.Fatalf("windowed writes %d, machine %d", writes, got)
	}
	if promos != c.Promotions || demos != c.Demotions {
		t.Fatalf("windowed migrations %d/%d, machine %d/%d", promos, demos, c.Promotions, c.Demotions)
	}
}

// TestOccupancySnapshot: the final window's node samples must agree with
// the live vecs and node free counts.
func TestOccupancySnapshot(t *testing.T) {
	m := testMachine(64, 64)
	s := New(m, 1*sim.Millisecond, 0)
	as := m.NewSpace()
	v := as.Mmap(10, false, "x")
	for i := 0; i < 10; i++ {
		m.Access(as, v.Start+pagetable.VPN(i), false)
	}
	m.Compute(500 * sim.Microsecond)
	ex := s.Export()
	last := ex.Windows[len(ex.Windows)-1]
	if len(last.Nodes) != len(m.Mem.Nodes) {
		t.Fatalf("window samples %d nodes, machine has %d", len(last.Nodes), len(m.Mem.Nodes))
	}
	for _, ns := range last.Nodes {
		n := m.Mem.Nodes[ns.Node]
		if ns.Free != n.FreeFrames() || ns.Tier != n.Tier.String() {
			t.Fatalf("node %d sample %+v disagrees with live node", ns.Node, ns)
		}
		vec := m.Vecs[ns.Node]
		if ns.AnonInactive != vec.Len(0) {
			t.Fatalf("node %d anon_inactive %d, vec %d", ns.Node, ns.AnonInactive, vec.Len(0))
		}
	}
	// All ten pages are resident somewhere on the anon lists.
	total := 0
	for _, ns := range last.Nodes {
		total += ns.AnonInactive + ns.AnonActive + ns.AnonPromote
	}
	if total != 10 {
		t.Fatalf("anon list populations sum to %d, want 10", total)
	}
}

// TestExportBeforeAnyTime: a sampler exported at its opening instant has no
// windows at all — not even a synthesized empty trailing one — and the empty
// section still validates.
func TestExportBeforeAnyTime(t *testing.T) {
	m := testMachine(16, 16)
	s := New(m, 1*sim.Millisecond, 0)
	ex := s.Export()
	if len(ex.Windows) != 0 {
		t.Fatalf("zero elapsed time produced %d windows", len(ex.Windows))
	}
	if ex.WindowNS != int64(1*sim.Millisecond) || ex.DroppedWindows != 0 {
		t.Fatalf("empty export header wrong: %+v", ex)
	}
	if err := metrics.ValidateSections(nil, ex); err != nil {
		t.Fatalf("empty series does not validate: %v", err)
	}
}

// TestZeroAccessMidRunWindow: a window the workload slept through must still
// be recorded — contiguous with its neighbors, all flow deltas zero, node
// occupancy carried over — rather than skipped or merged away.
func TestZeroAccessMidRunWindow(t *testing.T) {
	m := testMachine(64, 64)
	s := New(m, 1*sim.Millisecond, 0)
	as := m.NewSpace()
	v := as.Mmap(8, false, "x")
	// Window 0: touch every page. Window 1: pure idle. Window 2: touch again.
	for i := 0; i < 8; i++ {
		m.Access(as, v.Start+pagetable.VPN(i), false)
	}
	m.Compute(1 * sim.Millisecond) // closes window 0
	m.Compute(1 * sim.Millisecond) // closes window 1, untouched
	for i := 0; i < 8; i++ {
		m.Access(as, v.Start+pagetable.VPN(i), false)
	}
	m.Compute(500 * sim.Microsecond)
	ex := s.Export()
	if err := metrics.ValidateSections(nil, ex); err != nil {
		t.Fatalf("series does not validate: %v", err)
	}
	if len(ex.Windows) != 3 {
		t.Fatalf("windows = %d, want 3", len(ex.Windows))
	}
	for i := 1; i < len(ex.Windows); i++ {
		if ex.Windows[i].Start != ex.Windows[i-1].End {
			t.Fatalf("window %d not contiguous: starts %d after end %d",
				i, ex.Windows[i].Start, ex.Windows[i-1].End)
		}
	}
	idle := ex.Windows[1]
	if idle.Accesses() != 0 || idle.Promotions != 0 || idle.Demotions != 0 || idle.PagesScanned != 0 {
		t.Fatalf("idle window carries flow: %+v", idle)
	}
	// Occupancy is a point-in-time snapshot, not a delta: the 8 resident
	// pages must still show on the idle window's node samples.
	total := 0
	for _, ns := range idle.Nodes {
		total += ns.AnonInactive + ns.AnonActive + ns.AnonPromote
	}
	if total != 8 {
		t.Fatalf("idle window anon occupancy %d, want 8", total)
	}
	if ex.Windows[0].Accesses() == 0 || ex.Windows[2].Accesses() == 0 {
		t.Fatalf("active windows lost their accesses: %+v / %+v", ex.Windows[0], ex.Windows[2])
	}
}

// TestMaxWindowsCap: the cap must hold and drops must be counted.
func TestMaxWindowsCap(t *testing.T) {
	m := testMachine(16, 16)
	s := New(m, 1*sim.Millisecond, 3)
	m.Compute(10 * sim.Millisecond)
	ex := s.Export()
	if len(ex.Windows) != 3 {
		t.Fatalf("windows = %d, want cap 3", len(ex.Windows))
	}
	if ex.DroppedWindows == 0 {
		t.Fatal("over-cap windows not counted as dropped")
	}
}

// TestStopHaltsSampling: no boundary may close after Stop, and the stopped
// sampler's pending event must not advance time under Drain.
func TestStopHaltsSampling(t *testing.T) {
	m := testMachine(16, 16)
	s := New(m, 1*sim.Millisecond, 0)
	m.Compute(2500 * sim.Microsecond)
	s.Stop()
	n := len(s.Export().Windows)
	before := m.Clock.Now()
	m.Compute(5 * sim.Millisecond)
	if got := len(s.Export().Windows); got != n {
		t.Fatalf("stopped sampler recorded %d new windows", got-n)
	}
	if m.Clock.Now() != before+sim.Time(5*sim.Millisecond) {
		t.Fatal("stopped sampler moved the clock")
	}
}

// TestExportIdempotent: repeated exports must agree and the synthesized
// trailing window must not leak into sampler state.
func TestExportIdempotent(t *testing.T) {
	m := testMachine(16, 16)
	s := New(m, 1*sim.Millisecond, 0)
	m.Compute(1500 * sim.Microsecond)
	a, b := s.Export(), s.Export()
	if len(a.Windows) != len(b.Windows) {
		t.Fatalf("repeat export diverges: %d vs %d windows", len(a.Windows), len(b.Windows))
	}
	for i := range a.Windows {
		if a.Windows[i].Start != b.Windows[i].Start || a.Windows[i].End != b.Windows[i].End {
			t.Fatalf("window %d differs across exports", i)
		}
	}
}
