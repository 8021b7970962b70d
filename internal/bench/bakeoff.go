package bench

import (
	"fmt"
	"strings"

	"multiclock/internal/runner"
	"multiclock/internal/stats"
)

// BakeoffNames lists the policy bake-off comparison set: the paper's
// contenders plus the competitor policies implemented from related work —
// Nomad-style non-exclusive tiering, bandwidth-gated admission control on
// the MULTI-CLOCK daemons, and the S3-FIFO promote-candidate selector.
var BakeoffNames = []string{
	"static", "multiclock", "multiclock-gated", "nimble", "nomad", "s3fifo",
}

// Bakeoff runs the YCSB sequence over the bake-off comparison set and
// reports normalized throughput plus each policy's migration economy: how
// many pages it moved, what the moves cost, and the mechanism-specific
// counters (shadow copies, free demotions, admission rejections).
func Bakeoff(opt Options) string {
	sc := opt.scale()
	sc.Prefix = "bakeoff/"
	workloads := []string{"A", "B", "C", "F", "W", "D"}

	cells := runner.Map(opt.workers(), BakeoffNames, func(_ int, system string) ycsbRunResult {
		return ycsbRun(sc, system, false)
	})
	results := map[string]map[string]float64{}
	notes := map[string]string{}
	economy := map[string]string{}
	for i, system := range BakeoffNames {
		results[system] = cells[i].Throughput
		notes[system] = tierSummary(cells[i].Machine)
		c := &cells[i].Machine.Mem.Counters
		var extra []string
		if c.ShadowPromotes > 0 || c.ShadowHits > 0 || c.ShadowDrops > 0 {
			extra = append(extra, fmt.Sprintf("shadow: promotes=%d free-demotes=%d drops=%d",
				c.ShadowPromotes, c.ShadowHits, c.ShadowDrops))
		}
		if c.AdmissionRejects > 0 {
			extra = append(extra, fmt.Sprintf("admission-rejects=%d", c.AdmissionRejects))
		}
		economy[system] = fmt.Sprintf("promotions=%d demotions=%d migration-busy=%v",
			c.Promotions, c.Demotions, c.MigrationBusy)
		if len(extra) > 0 {
			economy[system] += "  " + strings.Join(extra, "  ")
		}
	}

	tb := stats.NewTable(
		"Policy bake-off — YCSB throughput normalized to static tiering (higher is better)",
		append([]string{"workload"}, BakeoffNames...)...)
	for _, w := range workloads {
		base := results["static"][w]
		row := []string{w}
		for _, system := range BakeoffNames {
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
	b.WriteString("\n")
	for _, system := range BakeoffNames {
		fmt.Fprintf(&b, "%-17s %s\n", system, notes[system])
		fmt.Fprintf(&b, "%-17s %s\n", "", economy[system])
	}
	return b.String()
}
