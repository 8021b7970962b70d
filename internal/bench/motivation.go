package bench

import (
	"fmt"
	"strings"

	"multiclock/internal/pagetable"
	"multiclock/internal/runner"
	"multiclock/internal/sim"
	"multiclock/internal/stats"
	"multiclock/internal/trace"
)

// scalePattern rescales a preset's phase geometry (written against an
// implied 20-second execution) to the experiment's compressed duration, so
// tier-friendly pages still flip phases several times per run.
func scalePattern(p trace.Pattern, duration sim.Duration) trace.Pattern {
	p.Phase = sim.Duration(float64(p.Phase) * float64(duration) / float64(20*sim.Second))
	if p.Phase <= 0 {
		p.Phase = duration / 8
	}
	return p
}

// Fig1 regenerates the motivation heatmaps: access frequency of 50 sampled
// pages over time for the four workload patterns (RUBiS, SPECpower, xalan,
// lusearch analogues — see the substitution note in internal/trace). Each
// pattern runs on its own machine, so the four render in parallel.
func Fig1(opt Options) string {
	sc := opt.scale()
	duration := 20 * sc.Interval
	sections := runner.Map(opt.workers(), trace.Patterns, func(_ int, preset trace.Pattern) string {
		p := scalePattern(preset, duration)
		m := sc.machine(opt.Seed, "static", sc.Interval)
		as := m.NewSpace()

		// Pre-plan the sample rows: the pattern VMA is the first mapping
		// in a fresh space, so its VPNs are deterministic. Run a probe
		// first to learn the VMA start.
		probeVMA := as.Mmap(1, false, "probe")
		sampleBase := probeVMA.End + 1 // the pattern VMA will start here
		rng := sim.NewRNG(opt.Seed ^ 77)
		var samples []pagetable.VPN
		for _, idx := range rng.Perm(p.Pages)[:50] {
			samples = append(samples, sampleBase+pagetable.VPN(idx))
		}
		h := trace.NewHeatmap(samples, []int32{as.ID}, duration/40)
		m.Attach(h)
		trace.RunPattern(m, as, p, duration, opt.Seed)

		return fmt.Sprintf("--- %s ---\n%s\n", p.Name, h.Render())
	})
	var b strings.Builder
	b.WriteString("Fig. 1 — page access heatmaps, 50 sampled pages × time windows\n")
	b.WriteString("(synthetic analogues of RUBiS/SPECpower/xalan/lusearch; see DESIGN.md)\n\n")
	for _, s := range sections {
		b.WriteString(s)
	}
	return b.String()
}

// Fig2 regenerates the observation/performance window frequency analysis:
// pages accessed multiple times in an observation window are accessed far
// more in the following performance window than single-access pages.
func Fig2(opt Options) string {
	sc := opt.scale()
	duration := 24 * sc.Interval
	rows := runner.Map(opt.workers(), trace.Patterns, func(_ int, preset trace.Pattern) []string {
		p := scalePattern(preset, duration)
		m := sc.machine(opt.Seed, "static", sc.Interval)
		as := m.NewSpace()
		wf := trace.NewWindowFreq(2*sc.Interval, 2*sc.Interval)
		m.Attach(wf)
		trace.RunPattern(m, as, p, duration, opt.Seed)
		res := wf.Result()
		return []string{p.Name,
			fmt.Sprintf("%.2f", res.SingleMean),
			fmt.Sprintf("%.2f", res.MultiMean),
			fmt.Sprintf("%.1fx", safeDiv(res.MultiMean, res.SingleMean))}
	})
	tb := stats.NewTable(
		"Fig. 2 — mean performance-window accesses by observation-window class",
		"workload", "single-access pages", "multi-access pages", "ratio")
	for _, row := range rows {
		tb.AddRow(row...)
	}
	return tb.String() +
		"\nexpected shape: multi-access pages dominate — the basis of MULTI-CLOCK's\n" +
		"two-reference promote-list selection (§II-A)\n"
}
