package bench

import (
	"fmt"
	"strings"
)

// BakeoffNames lists the policy bake-off comparison set: the paper's
// contenders plus the competitor policies implemented from related work —
// Nomad-style non-exclusive tiering, bandwidth-gated admission control on
// the MULTI-CLOCK daemons, and the S3-FIFO promote-candidate selector.
var BakeoffNames = []string{
	"static", "multiclock", "multiclock-gated", "nimble", "nomad", "s3fifo",
}

// bakeoff runs the YCSB sequence over the bake-off comparison set and
// reports normalized throughput plus each policy's migration economy: how
// many pages it moved, what the moves cost, and the mechanism-specific
// counters (shadow copies, free demotions, admission rejections).
func bakeoff(o Options) string {
	sc := o.scale()
	sc.Prefix = "bakeoff/"
	res := o.run(sc.cells(kindSequence, BakeoffNames...))
	var b strings.Builder
	b.WriteString(sequenceTable("Policy bake-off — YCSB throughput normalized to static tiering (higher is better)", BakeoffNames, res))
	writeStaticThroughput(&b, res[0].tp)
	b.WriteString("\n")
	for i, system := range BakeoffNames {
		c := &res[i].counters
		economy := fmt.Sprintf("promotions=%d demotions=%d migration-busy=%v",
			c.Promotions, c.Demotions, c.MigrationBusy)
		if c.ShadowPromotes > 0 || c.ShadowHits > 0 || c.ShadowDrops > 0 {
			economy += fmt.Sprintf("  shadow: promotes=%d free-demotes=%d drops=%d",
				c.ShadowPromotes, c.ShadowHits, c.ShadowDrops)
		}
		if c.AdmissionRejects > 0 {
			economy += fmt.Sprintf("  admission-rejects=%d", c.AdmissionRejects)
		}
		fmt.Fprintf(&b, "%-17s %s\n", system, tierSummary(c))
		fmt.Fprintf(&b, "%-17s %s\n", "", economy)
	}
	return b.String()
}
