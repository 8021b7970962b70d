package bench

import (
	"fmt"
	"strings"

	"multiclock/internal/machine"
	"multiclock/internal/sim"
	"multiclock/internal/stats"
	"multiclock/internal/ycsb"
)

// sequenceWorkloads is the presentation order of the paper sequence's
// workloads in the YCSB tables.
var sequenceWorkloads = []string{"A", "B", "C", "F", "W", "D"}

// runSequence loads the store on m and runs the prescribed sequence (Load,
// A, B, C, F, W, D), returning throughput per workload. With track, a
// promotion tracker over window rides along and is returned detached from
// the machine.
func runSequence(rc RunConfig, m *machine.Machine, track bool, window sim.Duration) (map[string]float64, *PromotionTracker) {
	var tracker *PromotionTracker
	if track {
		tracker = NewPromotionTracker(m, window)
		m.Attach(tracker)
	}
	_, client := rc.NewYCSB(m)
	client.Load()
	tp := map[string]float64{}
	for _, w := range ycsb.PaperSequence {
		tp[w.Name] = client.Run(w, rc.Ops).Throughput
	}
	if tracker != nil {
		tracker.nodes, tracker.pending = nil, nil
	}
	return tp, tracker
}

// runWorkloadA loads a store on m (huge backs it with transparent huge
// pages) and runs workload A once cold and, when warm, once more in steady
// state, on the workload-A experiments' client stream.
func runWorkloadA(rc RunConfig, m *machine.Machine, warm, huge bool) (cold, steady float64) {
	_, client := newYCSB(m, rc.Records, rc.Seed^0xface, huge)
	client.Load()
	cold = client.Run(ycsb.WorkloadA, rc.Ops).Throughput
	if warm {
		steady = client.Run(ycsb.WorkloadA, rc.Ops).Throughput
	}
	return cold, steady
}

// sequenceTable renders each system's throughput per workload of the paper
// sequence, normalized to the first system's (static's).
func sequenceTable(title string, systems []string, res []cellResult) string {
	tb := stats.NewTable(title, append([]string{"workload"}, systems...)...)
	for _, w := range sequenceWorkloads {
		row := []string{w}
		for i := range systems {
			row = append(row, fmt.Sprintf("%.3f", safeDiv(res[i].tp[w], res[0].tp[w])))
		}
		tb.AddRow(row...)
	}
	return tb.String()
}

// writeStaticThroughput appends the static baseline's absolute throughput
// per workload.
func writeStaticThroughput(b *strings.Builder, static map[string]float64) {
	b.WriteString("\nabsolute static throughput (ops/s): ")
	for _, w := range sequenceWorkloads {
		fmt.Fprintf(b, "%s=%.0f ", w, static[w])
	}
}

// fig5 regenerates the YCSB throughput comparison: every workload of the
// prescribed sequence, every tiered system, normalized to static tiering.
func fig5(o Options) string {
	sc := o.scale()
	sc.Prefix = "fig5/"
	res := o.run(sc.cells(kindSequence, SystemNames...))
	var b strings.Builder
	b.WriteString(sequenceTable("Fig. 5 — YCSB throughput normalized to static tiering (higher is better)", SystemNames, res))
	writeStaticThroughput(&b, res[0].tp)
	b.WriteString("\nworkload E: non-operational — memcached back-end has no SCAN (§V-B)\n")
	for i, system := range SystemNames {
		fmt.Fprintf(&b, "%-12s %s\n", system, tierSummary(&res[i].counters))
	}
	return b.String()
}

// fig7 regenerates the Memory-mode comparison: workload footprint set to
// 4× the DRAM capacity; YCSB workloads plus PageRank, normalized to
// static.
func fig7(o Options) string {
	sc := o.scale()
	sc.Prefix = "fig7/"
	// 4× DRAM: each 1000-byte record occupies ¼ page in its slab, so a
	// footprint of 4×DRAMPages pages needs 16 records per DRAM frame.
	sc.Records = int64(16 * sc.DRAMPages)
	cells := sc.cells(kindSequence, MemModeNames...)
	for _, system := range MemModeNames {
		cells = append(cells, kernelCell(sc, system, "PR"))
	}
	res := o.run(cells)
	n := len(MemModeNames)
	tb := stats.NewTable(
		"Fig. 7b — PageRank execution time normalized to static (lower is better)",
		"kernel", MemModeNames[0], MemModeNames[1], MemModeNames[2])
	row := []string{"PR"}
	for _, r := range res[n:] {
		row = append(row, fmt.Sprintf("%.3f", safeDiv(r.seconds, res[n].seconds)))
	}
	tb.AddRow(row...)
	return sequenceTable("Fig. 7a — YCSB at 4× DRAM footprint, normalized to static (higher is better)",
		MemModeNames, res[:n]) + "\n" + tb.String()
}

// promotionCells are Figs. 8 and 9's runs: the YCSB sequence under
// MULTI-CLOCK and Nimble with a promotion tracker riding along. The two
// figures read the same runs unless a pool labels them apart.
func promotionCells(sc scale) []cell {
	cells := sc.cells(kindSequence, "multiclock", "nimble")
	for i := range cells {
		cells[i].track, cells[i].window = true, sc.Window
	}
	return cells
}

// promotionFigure renders fig. 8 or 9 from the two tracked runs: a row per
// window of the series each tracker gives, then a summary row.
func promotionFigure(o Options, prefix, title, format, summary string,
	series func(*PromotionTracker) []float64, total func(*PromotionTracker) string) string {
	sc := o.scale()
	sc.Prefix = prefix
	res := o.run(promotionCells(sc))
	mc, nb := res[0].promotions, res[1].promotions
	mcS, nbS := series(mc), series(nb)
	tb := stats.NewTable(fmt.Sprintf(title, sc.Window), "window", "multiclock", "nimble")
	for i := 0; i < max(len(mcS), len(nbS)); i++ {
		tb.AddRow(fmt.Sprintf("%d", i), fmt.Sprintf(format, at(mcS, i)), fmt.Sprintf(format, at(nbS, i)))
	}
	tb.AddRow(summary, total(mc), total(nb))
	return tb.String()
}

// fig8 regenerates the pages-promoted-per-window comparison between
// MULTI-CLOCK and Nimble.
func fig8(o Options) string {
	return promotionFigure(o, "fig8/", "Fig. 8 — pages promoted per %v window", "%.0f", "total",
		(*PromotionTracker).Promotions, func(p *PromotionTracker) string { return fmt.Sprintf("%d", p.TotalPromotions()) }) +
		"\nexpected shape: nimble promotes more pages than multiclock (§V-D.1)\n"
}

// fig9 regenerates the re-access percentage of recently promoted pages.
func fig9(o Options) string {
	return promotionFigure(o, "fig9/", "Fig. 9 — %% of promoted pages re-accessed, per %v window", "%.1f", "mean",
		(*PromotionTracker).ReaccessPercent, func(p *PromotionTracker) string { return fmt.Sprintf("%.1f", p.MeanReaccessPercent()) }) +
		"\nexpected shape: multiclock's promoted pages have a higher re-access rate (§V-D.2)\n"
}

// steadyCell is fig. 10's cell: workload A measured after an unmeasured
// warmup pass, under system scanning every interval.
func steadyCell(sc scale, system string, interval sim.Duration) cell {
	sc.Interval = interval
	c := sc.cell(kindWorkloadA, system)
	c.warm = true
	return c
}

// fig10 regenerates the scanning-interval sensitivity study on YCSB
// workload A for MULTI-CLOCK and Nimble. Runs are measured after a warmup
// pass so the sweep isolates the steady-state trade-off the paper studies
// (scan overhead vs reaction lag), not warmup speed.
func fig10(o Options) string {
	sc := o.scale()
	sc.Prefix = "fig10/"
	intervals := []sim.Duration{sc.Interval / 10, sc.Interval / 4, sc.Interval / 2, sc.Interval, 5 * sc.Interval, 60 * sc.Interval}
	// The static baseline plus a multiclock and a nimble run per interval.
	cells := []cell{steadyCell(sc, "static", sc.Interval)}
	for _, iv := range intervals {
		cells = append(cells, steadyCell(sc, "multiclock", iv), steadyCell(sc, "nimble", iv))
	}
	res := o.run(cells)
	tb := stats.NewTable(
		"Fig. 10 — YCSB-A throughput vs scan interval, normalized to static (higher is better)",
		"interval", "multiclock", "nimble")
	base := res[0].steady
	for i, iv := range intervals {
		tb.AddRow(iv.String(),
			fmt.Sprintf("%.3f", safeDiv(res[1+2*i].steady, base)),
			fmt.Sprintf("%.3f", safeDiv(res[2+2*i].steady, base)))
	}
	return tb.String() +
		fmt.Sprintf("\npaper operating point: %v — the interval playing the paper's 1 s role\n"+
			"at this time compression (§V-E); shorter pays scan overhead, longer lags\n", sc.Interval)
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func at(s []float64, i int) float64 {
	if i < len(s) {
		return s[i]
	}
	return 0
}
