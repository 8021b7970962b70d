// Tracing: reproduce the paper's Fig. 1 motivation measurement on a
// synthetic bimodal workload — sample pages, record per-window access
// counts, and render the heatmap that reveals DRAM-friendly, tier-friendly
// (bimodal) and cold pages.
package main

import (
	"fmt"

	"multiclock"
	"multiclock/internal/trace"
)

func main() {
	// Default sizing and no tiering: the heatmap shows the workload's own
	// access pattern.
	cfg := multiclock.Config{Policy: multiclock.PolicyStatic, Seed: 5}
	sys := multiclock.NewSystem(cfg)
	as := sys.Machine().NewSpace()

	pattern := trace.PatternRUBiS
	duration := 2 * multiclock.Second
	pattern.Phase = duration / 5 // several hot/cold phase flips per run

	// The pattern VMA is the first mapping in the space: plan sample rows
	// up front. Sample 40 pages spread across the population so all three
	// classes appear.
	base := multiclock.VPN(1)
	var samples []multiclock.VPN
	for i := 0; i < 40; i++ {
		samples = append(samples, base+multiclock.VPN(i*pattern.Pages/40))
	}
	h := trace.NewHeatmap(samples, []int32{as.ID}, duration/48)
	sys.Attach(h)

	trace.RunPattern(sys.Machine(), as, pattern, duration, 5)

	fmt.Println("RUBiS-like access pattern: 40 sampled pages over virtual time")
	fmt.Println("rows 0-5 ≈ DRAM-friendly, 6-19 ≈ tier-friendly (bimodal), rest cold")
	fmt.Println()
	fmt.Print(h.Render())

	// The same run feeds the Fig. 2 question: do pages accessed multiple
	// times in a window stay hot in the next one?
	sys2 := multiclock.NewSystem(cfg)
	wf := trace.NewWindowFreq(duration/12, duration/12)
	sys2.Attach(wf)
	trace.RunPattern(sys2.Machine(), sys2.Machine().NewSpace(), pattern, duration, 5)
	res := wf.Result()
	fmt.Printf("\nwindow analysis: single-access pages avg %.2f accesses next window;\n", res.SingleMean)
	fmt.Printf("multi-access pages avg %.2f — %.1f× more (MULTI-CLOCK's hypothesis)\n",
		res.MultiMean, res.MultiMean/res.SingleMean)
}
