package bench

import (
	"fmt"

	"multiclock/internal/machine"
	"multiclock/internal/pagetable"
	"multiclock/internal/sim"
	"multiclock/internal/stats"
)

// ablationMultiProc reproduces §II-D's motivating scenario for dynamic
// tiering: two processes race for DRAM. The early process allocates first
// and wins the fast tier; the late process's equally hot working set lands
// in PM. Under static tiering the loser is stuck for its lifetime
// "regardless of how the importance of the contained data changes"; a
// dynamic policy should converge both processes toward similar
// performance. Reported: per-process throughput and the fairness ratio
// (late/early), per policy.
func ablationMultiProc(o Options) string {
	systems := []string{"static", "nimble", "multiclock"}
	cells := o.run(o.scale().cells(kindRace, systems...))
	tb := stats.NewTable(
		"Ablation — two-process DRAM allocation race (§II-D motivation)",
		"policy", "early proc (ops/s)", "late proc (ops/s)", "late/early")
	for i, system := range systems {
		tb.AddRow(system,
			fmt.Sprintf("%.0f", cells[i].early),
			fmt.Sprintf("%.0f", cells[i].late),
			fmt.Sprintf("%.3f", safeDiv(cells[i].late, cells[i].early)))
	}
	return tb.String() +
		"\nstatic tiering leaves the late process on PM forever; dynamic tiering\n" +
		"promotes its hot set and restores fairness\n"
}

// runRace: process A allocates and heats its working set first; process B
// arrives after DRAM is taken. Both then run identical skewed loops of
// opCount/4 operations each; their throughputs are measured over the same
// virtual span by interleaving operations.
func runRace(m *machine.Machine, opCount int64, seed uint64) (early, late float64) {

	const wset = 960 // pages per process; the early process alone ≈ DRAM
	procA := m.NewSpace()
	va := procA.Mmap(wset, false, "procA")
	procB := m.NewSpace()
	vb := procB.Mmap(wset, false, "procB")

	// A faults everything in first — and wins DRAM.
	for i := 0; i < wset; i++ {
		m.Access(procA, va.Start+pagetable.VPN(i), false)
	}
	// B arrives late; its pages are born in what's left (PM).
	for i := 0; i < wset; i++ {
		m.Access(procB, vb.Start+pagetable.VPN(i), false)
	}

	rng := sim.NewRNG(seed ^ 0x2e)
	// The hot quarter is striped across the whole working set so its
	// placement follows the allocation race, not page order.
	hot := func(r *sim.RNG) int {
		if r.Intn(10) < 8 {
			return r.Intn(wset/4) * 4
		}
		return r.Intn(wset)
	}

	// Interleave both processes' identical workloads; measure after a
	// warmup half.
	ops := int(opCount / 4)
	run := func(measure bool) (ta, tb sim.Duration) {
		for i := 0; i < ops; i++ {
			start := m.Clock.Now()
			m.Access(procA, va.Start+pagetable.VPN(hot(rng)), rng.Intn(3) == 0)
			m.EndOp()
			mid := m.Clock.Now()
			m.Access(procB, vb.Start+pagetable.VPN(hot(rng)), rng.Intn(3) == 0)
			m.EndOp()
			if measure {
				ta += sim.Duration(mid - start)
				tb += sim.Duration(m.Clock.Now() - mid)
			}
		}
		return ta, tb
	}
	run(false) // warmup
	ta, tbd := run(true)
	if ta > 0 {
		early = float64(ops) / ta.Seconds()
	}
	if tbd > 0 {
		late = float64(ops) / tbd.Seconds()
	}
	return early, late
}
