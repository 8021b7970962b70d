package bench

import (
	"fmt"
	"strings"
	"testing"

	"multiclock/internal/fault"
	"multiclock/internal/lifecycle"
	"multiclock/internal/metrics"
	"multiclock/internal/pagetable"
	"multiclock/internal/runner"
	"multiclock/internal/sim"
)

// The chaos lifecycle fixture pins the per-page span export of an
// oversubscribed run under fault injection, where failed migrations, retry
// requeues, dropped promotions and swap fallbacks happen all the time: the
// tracer's whole vocabulary, not only the list moves a fault-free run makes.
//
// Regenerate (only for intentional behaviour changes) with:
//
//	go test ./internal/bench -run TestChaosLifecycleGolden -update-golden
var (
	chaosLifecyclePolicies = []string{"multiclock", "nimble", "s3fifo", "nomad", "at-opm"}
	chaosLifecycleTiers    = []string{"", "dram:96,cxl:192,pm:352"}
	// chaosLifecycleFaults fails migrations often enough that a page can
	// spend its whole demotion retry budget and fall back to swap.
	chaosLifecycleFaults = fault.Config{Seed: 13, Rates: [fault.NumKinds]float64{
		fault.MigratePinned: 0.2, fault.MigrateTargetDenied: 0.2,
		fault.AllocStorm: 0.02, fault.PMSlowdown: 0.02, fault.DaemonOverrun: 0.02,
	}}
)

// chaosLifecycleRun drives the chaos workload on one policy and hierarchy
// with a sampled tracer bound and returns the tracer's export.
func chaosLifecycleRun(t *testing.T, policy, tiers string) *metrics.LifecycleExport {
	rc := RunConfig{
		Policy: policy, DRAMPages: 128, PMPages: 512, Tiers: tiers,
		Interval: 5 * sim.Millisecond, Seed: 13, Chaos: chaosLifecycleFaults,
	}
	m, err := rc.Machine()
	if err != nil {
		t.Error(err)
		return nil
	}
	tracer := lifecycle.New(lifecycle.Config{SampleMod: 16}).Bind(m)
	const pages = 900
	as := m.NewSpace()
	v := as.Mmap(pages, false, "chaos")
	rng := sim.NewRNG(rc.Seed ^ 0x11fe)
	for i := 0; i < 8000; i++ {
		switch k := rng.Intn(24); {
		case k == 0:
			m.Unmap(as, v.Start+pagetable.VPN(rng.Intn(pages)))
		case k == 1:
			m.Compute(sim.Duration(rng.Intn(15)) * sim.Millisecond)
		default:
			// A hot window that drifts over the region keeps pages
			// climbing and falling between the tiers.
			idx := rng.Intn(pages)
			if rng.Intn(10) < 7 {
				idx = (i/60 + rng.Intn(120)) % pages
			}
			m.Access(as, v.Start+pagetable.VPN(idx), rng.Intn(3) == 0)
		}
		m.EndOp()
	}
	stopDaemons(m.Policy)
	return tracer.Export()
}

// renderLifecycle writes an export as text: a header of the bounds, then one
// line per traced page and one indented line per event.
func renderLifecycle(b *strings.Builder, le *metrics.LifecycleExport) {
	fmt.Fprintf(b, "sample_mod=%d max_pages=%d max_events=%d pages_dropped=%d events_dropped=%d\n",
		le.SampleMod, le.MaxPages, le.MaxEventsPerPage, le.PagesDropped, le.EventsDropped)
	for _, p := range le.Pages {
		fmt.Fprintf(b, "page %d:%#x migrations=%d\n", p.Space, p.VA, p.Migrations)
		for _, e := range p.Events {
			fmt.Fprintf(b, "  %d %s %s %d\n", e.At, e.State, e.Reason, e.Node)
		}
	}
}

// TestChaosLifecycleGolden pins the chaos lifecycle export of every cell,
// and checks the fixture holds each outcome the tracer can report.
func TestChaosLifecycleGolden(t *testing.T) {
	type cell struct{ policy, tiers string }
	var cells []cell
	for _, tiers := range chaosLifecycleTiers {
		for _, p := range chaosLifecyclePolicies {
			cells = append(cells, cell{p, tiers})
		}
	}
	outs := runner.Map(-1, cells, func(_ int, c cell) *metrics.LifecycleExport {
		return chaosLifecycleRun(t, c.policy, c.tiers)
	})
	var b strings.Builder
	reasons := map[string]int{}
	for i, c := range cells {
		hier := "pair"
		if c.tiers != "" {
			hier = c.tiers
		}
		fmt.Fprintf(&b, "== %s %s ==\n", c.policy, hier)
		if outs[i] == nil {
			continue
		}
		renderLifecycle(&b, outs[i])
		for _, p := range outs[i].Pages {
			for _, e := range p.Events {
				reasons[e.Reason]++
			}
		}
	}
	for _, want := range []string{
		"birth", "promote-select", "demote-select", "promoted", "demoted", "migrate-fail",
		"promote-requeue", "promote-drop", "demote-requeue", "swap-fallback", "swap-out", "freed",
	} {
		if reasons[want] == 0 {
			t.Errorf("no %q event in any cell", want)
		}
	}
	checkGolden(t, "golden_chaos_lifecycle.txt", []byte(b.String()))
}
