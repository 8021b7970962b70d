package machine

import (
	"testing"

	"multiclock/internal/mem"
	"multiclock/internal/pagetable"
	"multiclock/internal/sim"
)

// These tests pin the AccessN accounting contract so fast-path work cannot
// silently decouple latency charges from their counters:
//
//   - Every iteration of the thrash-retry fault loop charges Lat.MinorFault
//     exactly once, and every fault() call increments Counters.MinorFaults
//     exactly once — one attempt, one charge, one count. A swap-in re-fault
//     additionally counts SwapIns and charges Lat.SwapIn via the pending
//     direct charge, which the same AccessN call folds into its latency.
//
//   - Cache-filtered accesses bypass Metrics.AccessLatency by design (the
//     sink reports device-level memory-system cost; a CPU-cache hit never
//     reaches the memory system). They still count CacheFiltered and charge
//     the CacheHit cost on the timeline.

// TestFaultLatencyMatchesFaultCounters zeroes every latency except the
// minor-fault and swap-in costs, then thrashes a 4x-oversubscribed machine
// for several rounds so pages are reclaimed and re-faulted repeatedly. The
// only virtual time that can pass is fault accounting, so the clock must
// equal MinorFaults*MinorFault + SwapIns*SwapIn exactly. A retry-loop
// charge without a counter increment — or a counted fault that never
// charged — breaks the equality.
func TestFaultLatencyMatchesFaultCounters(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mem.DRAMNodes = []int{16}
	cfg.Mem.PMNodes = []int{16}
	cfg.OpCost = 0
	cfg.CPUCachePages = 0
	m := New(cfg, &nullPolicy{})
	m.Mem.Lat = mem.LatencyModel{
		Read:       make([]sim.Duration, 2),
		Write:      make([]sim.Duration, 2),
		PageCopy:   [][]sim.Duration{make([]sim.Duration, 2), make([]sim.Duration, 2)},
		MinorFault: 1500 * sim.Nanosecond,
		SwapIn:     60 * sim.Microsecond,
	}
	as := m.NewSpace()
	v := as.Mmap(128, false, "big")
	for round := 0; round < 4; round++ {
		for i := 0; i < 128; i++ {
			m.AccessN(as, v.Start+pagetable.VPN(i), i%3 == 0, 4)
		}
	}
	c := &m.Mem.Counters
	if c.SwapOuts == 0 || c.SwapIns == 0 {
		t.Fatalf("test did not thrash: %d swap-outs, %d swap-ins", c.SwapOuts, c.SwapIns)
	}
	want := sim.Duration(c.MinorFaults)*(1500*sim.Nanosecond) +
		sim.Duration(c.SwapIns)*(60*sim.Microsecond)
	if got := m.Elapsed(); got != want {
		t.Fatalf("virtual time %v != MinorFaults(%d)*MinorFault + SwapIns(%d)*SwapIn = %v — fault latency and fault counters diverged",
			got, c.MinorFaults, c.SwapIns, want)
	}
}

// latRecorder counts Telemetry.AccessLatency reports.
type latRecorder struct {
	accesses int
	total    sim.Duration
}

func (r *latRecorder) AccessLatency(tier mem.Tier, write bool, lat sim.Duration, now sim.Time) {
	r.accesses++
	r.total += lat
}
func (r *latRecorder) Migration(from, to mem.NodeID, pages int, cost sim.Duration, now sim.Time) {}
func (r *latRecorder) DaemonPass(name string, work sim.Duration, now sim.Time)                   {}
func (r *latRecorder) QueueDepth(depth int, now sim.Time)                                        {}

// TestCacheFilteredAccessesBypassMetrics pins the documented contract:
// accesses absorbed by the modelled CPU cache are invisible to the
// AccessLatency sink (no memory-system traffic happened) but are still
// counted in CacheFiltered and still advance the clock by the CacheHit
// cost. Latency seen by the sink is device cost only.
func TestCacheFilteredAccessesBypassMetrics(t *testing.T) {
	m := cachedMachine(4)
	rec := &latRecorder{}
	m.SetMetrics(rec)
	as := m.NewSpace()
	v := as.Mmap(1, false, "x")

	m.Access(as, v.Start, false) // fault + cache miss: reported
	if rec.accesses != 1 {
		t.Fatalf("miss reported %d times, want 1", rec.accesses)
	}
	if rec.total != m.Mem.Lat.Read[mem.TierDRAM] {
		t.Fatalf("reported device cost %v, want DRAM read %v", rec.total, m.Mem.Lat.Read[mem.TierDRAM])
	}

	before := m.Clock.Now()
	m.Access(as, v.Start, false) // cache hit: filtered, not reported
	if rec.accesses != 1 {
		t.Fatalf("cache-filtered access reached Metrics.AccessLatency (%d reports, want 1)", rec.accesses)
	}
	if m.Mem.Counters.CacheFiltered != 1 {
		t.Fatalf("CacheFiltered = %d, want 1", m.Mem.Counters.CacheFiltered)
	}
	if got := sim.Duration(m.Clock.Now() - before); got != m.Mem.Lat.CacheHit {
		t.Fatalf("filtered access advanced clock by %v, want Lat.CacheHit %v", got, m.Mem.Lat.CacheHit)
	}
}
