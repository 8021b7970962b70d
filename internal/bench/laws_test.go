package bench

import (
	"testing"

	"multiclock/internal/sim"
)

// roomyRun runs YCSB workload A under policy on a machine whose fast tier
// holds the whole footprint, with the daemon wakeup and per-page scan, hint
// fault and PTE-poison costs zeroed before the load phase, and returns the
// finished session.
func roomyRun(t *testing.T, policy, tiers string) *Session {
	t.Helper()
	rc := RunConfig{
		Policy: policy, Workloads: []string{"A"}, Records: 2000, Ops: 20_000,
		DRAMPages: 8192, PMPages: 1024, Tiers: tiers,
		Interval: sim.Millisecond, Seed: 11,
	}
	s, err := newPristine(rc)
	if err != nil {
		t.Fatal(err)
	}
	lat := &s.M.Mem.Lat
	lat.DaemonWakeup, lat.DaemonScanPage, lat.HintFault, lat.PTEPoison = 0, 0, 0, 0
	s.Client.Load()
	if _, err := s.Finish(); err != nil {
		t.Fatal(err)
	}
	return s
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
