package bench

import (
	"testing"

	"multiclock/internal/mem"
	"multiclock/internal/sim"
)

// lawRun runs YCSB workload A (2 000 records, 20 000 ops, seed 11) on the
// machine rc describes, after edit has changed its costs before the load
// phase, and returns the finished session.
func lawRun(t *testing.T, rc RunConfig, edit func(*mem.LatencyModel)) *Session {
	t.Helper()
	rc.Workloads, rc.Records, rc.Ops, rc.Seed = []string{"A"}, 2000, 20_000, 11
	s, err := newPristine(rc)
	if err != nil {
		t.Fatal(err)
	}
	edit(&s.M.Mem.Lat)
	s.Client.Load()
	if _, err := s.Finish(); err != nil {
		t.Fatal(err)
	}
	return s
}

// roomyRun runs workload A on a machine whose fast tier holds the whole
// footprint, with the daemon wakeup and per-page scan, hint fault and
// PTE-poison costs zeroed.
func roomyRun(t *testing.T, policy, tiers string) *Session {
	rc := RunConfig{Policy: policy, DRAMPages: 8192, PMPages: 1024, Tiers: tiers, Interval: sim.Millisecond}
	return lawRun(t, rc, func(lat *mem.LatencyModel) {
		lat.DaemonWakeup, lat.DaemonScanPage, lat.HintFault, lat.PTEPoison = 0, 0, 0, 0
	})
}

// The roomy-fast-tier law (ROADMAP item 11a): when the fast tier holds the
// whole footprint there is nothing to tier, so no policy promotes, demotes,
// migrates or swaps, and once the costs of looking (scans, wakeups, hint
// faults, PTE poisoning) are zero, every policy's virtual time is static's.
// memory-mode is exempt from the time half: its DRAM is a hardware cache in
// front of PM, not a tier the footprint lives in, and it pays the cache
// fills and write-backs of that cache.
func TestRoomyFastTierLaw(t *testing.T) {
	for _, tiers := range []string{"", "dram:8192,cxl:1024,pm:1024"} {
		static := roomyRun(t, "static", tiers).M.Clock.Now()
		var scanned, hinted int64
		for _, policy := range PolicyNames() {
			c := roomyRun(t, policy, tiers).M
			mc := c.Mem.Counters
			scanned += mc.PagesScanned
			hinted += mc.HintFaults
			moved := mc.Promotions + mc.Demotions + mc.MigrateFails + mc.SwapOuts + mc.ShadowPromotes
			if moved != 0 || mc.MigrationBusy != 0 {
				t.Errorf("%s on %q: promotions=%d demotions=%d migrate_fails=%d swap_outs=%d shadow_promotes=%d migration_busy=%v, want none",
					policy, tiers, mc.Promotions, mc.Demotions, mc.MigrateFails, mc.SwapOuts, mc.ShadowPromotes, mc.MigrationBusy)
			}
			if now := c.Clock.Now(); now != static && policy != "memory-mode" {
				t.Errorf("%s on %q: virtual time %v, static %v", policy, tiers, now, static)
			}
		}
		// The zeroed costs were incurred: the law is not met by idle daemons.
		if scanned == 0 || hinted == 0 {
			t.Errorf("on %q: %d pages scanned, %d hint faults; the run must exercise both costs", tiers, scanned, hinted)
		}
	}
}

// flatRun runs workload A on a machine whose fast tier is smaller than the
// footprint, with every slower tier given the fast tier's read and write
// latencies. At a 2 ms interval MULTI-CLOCK promotes within the run, and
// amp-random's exchanges (up to 512 a pass, each paying its migration tax)
// still cost less than the interval; at 1 ms they cost more, and its run
// does not finish in a minute.
func flatRun(t *testing.T, policy, tiers string) *Session {
	rc := RunConfig{Policy: policy, DRAMPages: 256, PMPages: 4096, Tiers: tiers, Interval: 2 * sim.Millisecond}
	return lawRun(t, rc, func(lat *mem.LatencyModel) {
		for tier := range lat.Read {
			lat.Read[tier], lat.Write[tier] = lat.Read[0], lat.Write[0]
		}
	})
}

// The flat-hierarchy law (ROADMAP item 11b): when the slower tiers are as
// fast as the fast one, placement buys nothing, so no policy's virtual time
// may be below static's; whatever a policy spends on scanning, hint faults
// and migration can only add to it.
func TestFlatHierarchyLaw(t *testing.T) {
	for _, tiers := range []string{"", "dram:256,cxl:1024,pm:4096"} {
		static := flatRun(t, "static", tiers).M.Clock.Now()
		var promoted int64
		for _, policy := range PolicyNames() {
			m := flatRun(t, policy, tiers).M
			promoted += m.Mem.Counters.Promotions
			t.Logf("%s on %q: %.3f× static, %d promotions", policy, tiers, float64(m.Clock.Now())/float64(static), m.Mem.Counters.Promotions)
			if now := m.Clock.Now(); now < static {
				t.Errorf("%s on %q: virtual time %v below static's %v on a flat hierarchy", policy, tiers, now, static)
			}
		}
		// The fast tier overflowed and pages moved: the law is not met by
		// policies that had nothing to do.
		if promoted == 0 {
			t.Errorf("on %q: no policy promoted a page", tiers)
		}
	}
}
