package bench

import (
	"fmt"
	"strings"

	"multiclock/internal/graph"
	"multiclock/internal/machine"
	"multiclock/internal/runner"
	"multiclock/internal/sim"
	"multiclock/internal/stats"
)

// gapbsKernels lists the six workloads in the paper's presentation order.
var gapbsKernels = []string{"BFS", "SSSP", "PR", "CC", "BC", "TC"}

// runKernel executes one GAPBS kernel for the given number of trials and
// returns the mean virtual execution time per trial, which is what GAPBS
// reports (§V-B: "the average execution time taken per trial").
func runKernel(m *machine.Machine, g *graph.Graph, kernel string, sc scale) sim.Duration {
	rng := sim.NewRNG(sc.Seed ^ 0xbadc)
	trials := sc.BFSTrials
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
		run(func() { g.PageRank(sc.PRIters) })
	case "CC":
		trials = 1
		run(func() { g.CC() })
	case "BC":
		trials = 1
		sources := make([]int32, sc.BCSources)
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

// gapbsKernelTime builds a fresh system, loads the graph, runs one kernel,
// and returns its mean trial time in virtual seconds.
func gapbsKernelTime(sc scale, system, kernel string) float64 {
	gsc := sc
	gsc.DRAMPages = sc.GraphDRAMPages
	gsc.PMPages = sc.GraphPMPages
	m := gsc.machine(system)
	g := graph.Generate(m, graph.GenConfig{
		Vertices:  sc.GraphVertices,
		Degree:    sc.GraphDegree,
		Kronecker: true,
		Seed:      sc.Seed,
	})
	t := runKernel(m, g, kernel, sc)
	stopDaemons(m.Policy)
	return t.Seconds()
}

// Fig6 regenerates the GAPBS comparison: execution time of all six kernels
// under every tiered system, normalized to static tiering (lower is
// better).
func Fig6(opt Options) string {
	sc := opt.scale()
	// 30 independent cells: every system×kernel pair builds and loads its
	// own graph machine.
	type fig6Cell struct {
		system, kernel string
	}
	var cellDefs []fig6Cell
	for _, system := range SystemNames {
		for _, k := range gapbsKernels {
			cellDefs = append(cellDefs, fig6Cell{system, k})
		}
	}
	times := runner.Map(opt.workers(), cellDefs, func(_ int, c fig6Cell) float64 {
		return gapbsKernelTime(sc, c.system, c.kernel)
	})
	results := map[string]map[string]float64{}
	for i, c := range cellDefs {
		if results[c.system] == nil {
			results[c.system] = map[string]float64{}
		}
		results[c.system][c.kernel] = times[i]
	}
	tb := stats.NewTable(
		"Fig. 6 — GAPBS execution time normalized to static tiering (lower is better)",
		append([]string{"kernel"}, SystemNames...)...)
	for _, k := range gapbsKernels {
		base := results["static"][k]
		row := []string{k}
		for _, system := range SystemNames {
			row = append(row, fmt.Sprintf("%.3f", safeDiv(results[system][k], base)))
		}
		tb.AddRow(row...)
	}
	var b strings.Builder
	b.WriteString(tb.String())
	b.WriteString("\nabsolute static trial time (s): ")
	for _, k := range gapbsKernels {
		fmt.Fprintf(&b, "%s=%.3f ", k, results["static"][k])
	}
	b.WriteString("\nexpected shape: gains smaller than YCSB — the graph's hot data is " +
		"allocated first and already DRAM-resident (§V-C.1)\n")
	return b.String()
}
