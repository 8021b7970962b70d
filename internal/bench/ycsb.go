package bench

import (
	"fmt"
	"strings"

	"multiclock/internal/machine"
	"multiclock/internal/runner"
	"multiclock/internal/sim"
	"multiclock/internal/stats"
	"multiclock/internal/ycsb"
)

// ycsbRun executes the prescribed sequence (Load, A, B, C, F, W, D) on one
// freshly built system and returns per-workload throughput plus the
// machine (for counters) and optional telemetry.
type ycsbRunResult struct {
	Throughput map[string]float64
	Machine    *machine.Machine
	Tracker    *PromotionTracker
}

func ycsbRun(sc scale, system string, track bool) ycsbRunResult {
	m := sc.machine(system)
	sc.instrument(m, system)
	var tracker *PromotionTracker
	if track {
		tracker = NewPromotionTracker(m, sc.Window)
		m.Attach(tracker)
	}
	_, client := sc.NewYCSB(m)
	client.Load()

	out := ycsbRunResult{Throughput: map[string]float64{}, Machine: m, Tracker: tracker}
	for _, w := range ycsb.PaperSequence {
		res := client.Run(w, sc.Ops)
		out.Throughput[w.Name] = res.Throughput
	}
	stopDaemons(m.Policy)
	return out
}

// Fig5 regenerates the YCSB throughput comparison: every workload of the
// prescribed sequence, every tiered system, normalized to static tiering.
func Fig5(opt Options) string {
	sc := opt.scale()
	sc.Prefix = "fig5/"
	workloads := []string{"A", "B", "C", "F", "W", "D"}

	// One schedulable cell per system; results keyed back by name.
	cells := runner.Map(opt.workers(), SystemNames, func(_ int, system string) ycsbRunResult {
		return ycsbRun(sc, system, false)
	})
	results := map[string]map[string]float64{}
	notes := map[string]string{}
	for i, system := range SystemNames {
		results[system] = cells[i].Throughput
		notes[system] = tierSummary(cells[i].Machine)
	}

	tb := stats.NewTable(
		"Fig. 5 — YCSB throughput normalized to static tiering (higher is better)",
		append([]string{"workload"}, SystemNames...)...)
	for _, w := range workloads {
		base := results["static"][w]
		row := []string{w}
		for _, system := range SystemNames {
			norm := 0.0
			if base > 0 {
				norm = results[system][w] / base
			}
			row = append(row, fmt.Sprintf("%.3f", norm))
		}
		tb.AddRow(row...)
	}
	var b strings.Builder
	b.WriteString(tb.String())
	b.WriteString("\nabsolute static throughput (ops/s): ")
	for _, w := range workloads {
		fmt.Fprintf(&b, "%s=%.0f ", w, results["static"][w])
	}
	b.WriteString("\nworkload E: non-operational — memcached back-end has no SCAN (§V-B)\n")
	for _, system := range SystemNames {
		fmt.Fprintf(&b, "%-12s %s\n", system, notes[system])
	}
	return b.String()
}

// Fig7 regenerates the Memory-mode comparison: workload footprint set to
// 4× the DRAM capacity; YCSB workloads plus PageRank, normalized to
// static.
func Fig7(opt Options) string {
	sc := opt.scale()
	sc.Prefix = "fig7/"
	// 4× DRAM: each 1000-byte record occupies ¼ page in its slab, so a
	// footprint of 4×DRAMPages pages needs 16 records per DRAM frame.
	sc.Records = int64(16 * sc.DRAMPages)
	workloads := []string{"A", "B", "C", "F", "W", "D"}

	// Six independent cells: a YCSB sequence and a PageRank run per
	// system, all scheduled together.
	type fig7Cell struct {
		system string
		pr     bool
	}
	var cellDefs []fig7Cell
	for _, system := range MemModeNames {
		cellDefs = append(cellDefs, fig7Cell{system, false})
	}
	for _, system := range MemModeNames {
		cellDefs = append(cellDefs, fig7Cell{system, true})
	}
	type fig7Res struct {
		tp     map[string]float64
		prTime float64
	}
	cells := runner.Map(opt.workers(), cellDefs, func(_ int, c fig7Cell) fig7Res {
		if c.pr {
			return fig7Res{prTime: gapbsKernelTime(sc, c.system, "PR")}
		}
		return fig7Res{tp: ycsbRun(sc, c.system, false).Throughput}
	})
	results := map[string]map[string]float64{}
	times := map[string]float64{}
	for i, c := range cellDefs {
		if c.pr {
			times[c.system] = cells[i].prTime
		} else {
			results[c.system] = cells[i].tp
		}
	}

	tb := stats.NewTable(
		"Fig. 7a — YCSB at 4× DRAM footprint, normalized to static (higher is better)",
		append([]string{"workload"}, MemModeNames...)...)
	for _, w := range workloads {
		base := results["static"][w]
		row := []string{w}
		for _, system := range MemModeNames {
			norm := 0.0
			if base > 0 {
				norm = results[system][w] / base
			}
			row = append(row, fmt.Sprintf("%.3f", norm))
		}
		tb.AddRow(row...)
	}

	// Fig. 7b: PageRank execution time.
	tb2 := stats.NewTable(
		"Fig. 7b — PageRank execution time normalized to static (lower is better)",
		"kernel", MemModeNames[0], MemModeNames[1], MemModeNames[2])
	base := times["static"]
	row := []string{"PR"}
	for _, system := range MemModeNames {
		norm := 0.0
		if base > 0 {
			norm = times[system] / base
		}
		row = append(row, fmt.Sprintf("%.3f", norm))
	}
	tb2.AddRow(row...)
	return tb.String() + "\n" + tb2.String()
}

// Fig8 and Fig9 share one instrumented run of MULTI-CLOCK and Nimble. The
// metricsPrefix keeps their pool labels distinct when one pool collects
// both figures.
func promotionTelemetry(opt Options, metricsPrefix string) (mc, nb ycsbRunResult, sc scale) {
	sc = opt.scale()
	sc.Prefix = metricsPrefix
	cells := runner.Map(opt.workers(), []string{"multiclock", "nimble"}, func(_ int, system string) ycsbRunResult {
		return ycsbRun(sc, system, true)
	})
	return cells[0], cells[1], sc
}

// Fig8 regenerates the pages-promoted-per-window comparison between
// MULTI-CLOCK and Nimble.
func Fig8(opt Options) string {
	mc, nb, sc := promotionTelemetry(opt, "fig8/")
	mcS, nbS := mc.Tracker.Promotions(), nb.Tracker.Promotions()
	n := maxLen(mcS, nbS)
	tb := stats.NewTable(
		fmt.Sprintf("Fig. 8 — pages promoted per %v window", sc.Window),
		"window", "multiclock", "nimble")
	for i := 0; i < n; i++ {
		tb.AddRow(fmt.Sprintf("%d", i), fmt.Sprintf("%.0f", at(mcS, i)), fmt.Sprintf("%.0f", at(nbS, i)))
	}
	tb.AddRow("total",
		fmt.Sprintf("%d", mc.Tracker.TotalPromotions()),
		fmt.Sprintf("%d", nb.Tracker.TotalPromotions()))
	return tb.String() +
		"\nexpected shape: nimble promotes more pages than multiclock (§V-D.1)\n"
}

// Fig9 regenerates the re-access percentage of recently promoted pages.
func Fig9(opt Options) string {
	mc, nb, sc := promotionTelemetry(opt, "fig9/")
	mcS, nbS := mc.Tracker.ReaccessPercent(), nb.Tracker.ReaccessPercent()
	n := maxLen(mcS, nbS)
	tb := stats.NewTable(
		fmt.Sprintf("Fig. 9 — %% of promoted pages re-accessed, per %v window", sc.Window),
		"window", "multiclock", "nimble")
	for i := 0; i < n; i++ {
		tb.AddRow(fmt.Sprintf("%d", i), fmt.Sprintf("%.1f", at(mcS, i)), fmt.Sprintf("%.1f", at(nbS, i)))
	}
	tb.AddRow("mean",
		fmt.Sprintf("%.1f", mc.Tracker.MeanReaccessPercent()),
		fmt.Sprintf("%.1f", nb.Tracker.MeanReaccessPercent()))
	return tb.String() +
		"\nexpected shape: multiclock's promoted pages have a higher re-access rate (§V-D.2)\n"
}

// Fig10 regenerates the scanning-interval sensitivity study on YCSB
// workload A for MULTI-CLOCK and Nimble. Runs are measured after a warmup
// pass so the sweep isolates the steady-state trade-off the paper studies
// (scan overhead vs reaction lag), not warmup speed.
func Fig10(opt Options) string {
	sc := opt.scale()
	sc.Prefix = "fig10/"
	intervals := []sim.Duration{
		sc.Interval / 10,
		sc.Interval / 4,
		sc.Interval / 2,
		sc.Interval,
		5 * sc.Interval,
		60 * sc.Interval,
	}
	// The static baseline plus a multiclock and a nimble run per interval,
	// all independent machines.
	type sweepCell struct {
		system   string
		interval sim.Duration
	}
	cellDefs := []sweepCell{{"static", sc.Interval}}
	for _, iv := range intervals {
		cellDefs = append(cellDefs, sweepCell{"multiclock", iv}, sweepCell{"nimble", iv})
	}
	tps := runner.Map(opt.workers(), cellDefs, func(_ int, c sweepCell) float64 {
		cell := sc
		cell.Interval = c.interval
		return ycsbSteadyWorkloadA(cell, c.system)
	})
	tb := stats.NewTable(
		"Fig. 10 — YCSB-A throughput vs scan interval, normalized to static (higher is better)",
		"interval", "multiclock", "nimble")
	base := tps[0]
	for i, iv := range intervals {
		tb.AddRow(iv.String(),
			fmt.Sprintf("%.3f", safeDiv(tps[1+2*i], base)),
			fmt.Sprintf("%.3f", safeDiv(tps[2+2*i], base)))
	}
	return tb.String() +
		fmt.Sprintf("\npaper operating point: %v — the interval playing the paper's 1 s role\n"+
			"at this time compression (§V-E); shorter pays scan overhead, longer lags\n", sc.Interval)
}

// ycsbOneWorkload loads and runs only workload A, returning throughput.
func ycsbOneWorkload(sc scale, system string) float64 {
	tp, _, _ := ycsbWorkloadA(sc, system, false, false)
	return tp
}

// ycsbSteadyWorkloadA measures workload A after an unmeasured warmup pass.
func ycsbSteadyWorkloadA(sc scale, system string) float64 {
	_, tp, _ := ycsbWorkloadA(sc, system, true, false)
	return tp
}

// ycsbWorkloadA runs workload A (see runWorkloadA) on a fresh instrumented
// machine under the named system. The finished machine is returned for its
// counters.
func ycsbWorkloadA(sc scale, system string, warm, huge bool) (cold, steady float64, m *machine.Machine) {
	m = sc.machine(system)
	sc.instrument(m, system+"@"+sc.Interval.String())
	cold, steady = runWorkloadA(sc, m, warm, huge)
	return cold, steady, m
}

// runWorkloadA loads a store on m (huge backs it with transparent huge
// pages) and runs workload A once cold and, when warm, once more in steady
// state, on the workload-A experiments' client stream.
func runWorkloadA(sc scale, m *machine.Machine, warm, huge bool) (cold, steady float64) {
	_, client := newYCSB(m, sc.Records, sc.Seed^0xface, huge)
	client.Load()
	cold = client.Run(ycsb.WorkloadA, sc.Ops).Throughput
	if warm {
		steady = client.Run(ycsb.WorkloadA, sc.Ops).Throughput
	}
	stopDaemons(m.Policy)
	return cold, steady
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func maxLen(a, b []float64) int {
	if len(a) > len(b) {
		return len(a)
	}
	return len(b)
}

func at(s []float64, i int) float64 {
	if i < len(s) {
		return s[i]
	}
	return 0
}
