package bench

import (
	"fmt"
	"strings"

	"multiclock/internal/graph"
	"multiclock/internal/machine"
	"multiclock/internal/sim"
	"multiclock/internal/stats"
)

// gapbsKernels lists the six workloads in the paper's presentation order.
var gapbsKernels = []string{"BFS", "SSSP", "PR", "CC", "BC", "TC"}

// runKernel executes one GAPBS kernel for the given number of trials and
// returns the mean virtual execution time per trial, which is what GAPBS
// reports (§V-B: "the average execution time taken per trial").
func runKernel(m *machine.Machine, g *graph.Graph, kernel string, seed uint64, gs graphScale) sim.Duration {
	rng := sim.NewRNG(seed ^ 0xbadc)
	trials := gs.BFSTrials
	var total sim.Duration
	run := func(body func()) {
		m.AbsorbTax() // bill load-phase daemon work to the load, not the trial
		start := m.Clock.Now()
		body()
		total += sim.Duration(m.Clock.Now() - start)
	}
	switch kernel {
	case "BFS":
		for i := 0; i < trials; i++ {
			src := int32(rng.Intn(g.N))
			run(func() { g.BFS(src) })
		}
	case "SSSP":
		for i := 0; i < trials; i++ {
			src := int32(rng.Intn(g.N))
			run(func() { g.SSSP(src, 64) })
		}
	case "PR":
		trials = 1
		run(func() { g.PageRank(gs.PRIters) })
	case "CC":
		trials = 1
		run(func() { g.CC() })
	case "BC":
		trials = 1
		sources := make([]int32, gs.BCSources)
		for i := range sources {
			sources[i] = int32(rng.Intn(g.N))
		}
		run(func() { g.BC(sources) })
	case "TC":
		trials = 1
		run(func() { g.TC() })
	default:
		panic("bench: unknown kernel " + kernel)
	}
	return total / sim.Duration(trials)
}

// kernelCell is the cell that runs kernel under system on the template's
// graph.
func kernelCell(sc scale, system, kernel string) cell {
	c := sc.cell(kindKernel, system)
	c.kernel = kernel
	return c
}

// fig6 regenerates the GAPBS comparison: execution time of all six kernels
// under every tiered system, normalized to static tiering (lower is
// better).
func fig6(o Options) string {
	sc := o.scale()
	// One cell per system×kernel pair; each loads its own graph machine.
	var cells []cell
	for _, system := range SystemNames {
		for _, k := range gapbsKernels {
			cells = append(cells, kernelCell(sc, system, k))
		}
	}
	res := o.run(cells)
	// seconds returns the trial time of system (by index) on kernel k.
	seconds := func(system, k int) float64 { return res[system*len(gapbsKernels)+k].seconds }
	tb := stats.NewTable(
		"Fig. 6 — GAPBS execution time normalized to static tiering (lower is better)",
		append([]string{"kernel"}, SystemNames...)...)
	for k, kernel := range gapbsKernels {
		row := []string{kernel}
		for s := range SystemNames {
			row = append(row, fmt.Sprintf("%.3f", safeDiv(seconds(s, k), seconds(0, k))))
		}
		tb.AddRow(row...)
	}
	var b strings.Builder
	b.WriteString(tb.String())
	b.WriteString("\nabsolute static trial time (s): ")
	for k, kernel := range gapbsKernels {
		fmt.Fprintf(&b, "%s=%.3f ", kernel, seconds(0, k))
	}
	b.WriteString("\nexpected shape: gains smaller than YCSB — the graph's hot data is " +
		"allocated first and already DRAM-resident (§V-C.1)\n")
	return b.String()
}
