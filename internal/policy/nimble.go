package policy

import (
	"multiclock/internal/lru"
	"multiclock/internal/machine"
	"multiclock/internal/mem"
	"multiclock/internal/sim"
)

// Nimble reimplements the page *selection* mechanism of Nimble as the paper
// did for its comparison (§II-D): Linux's stock CLOCK profiling (recency
// only — a single recent reference qualifies a page) with the most recently
// accessed pages of the lower tier exchanged into DRAM, single-threaded.
// Migration-mechanism optimizations (multi-threaded copy, THP exchange) are
// out of scope exactly as in the paper's comparison.
type Nimble struct {
	recencyDemoter
	interval sim.Duration
	gate     *machine.BandwidthGate

	// Promotions counts pages moved up; exposed for Fig. 8 telemetry.
	Promotions int64

	// promoteBuf is the reusable candidate buffer (allocation-free wakeups).
	promoteBuf []*mem.Page
}

// NewNimble returns the Nimble-selection baseline scanning every interval
// (the paper runs it at kpromoted's 1 s, §V-C). gate, when non-nil, is a
// promotion admission controller consulted once per candidate before any
// migration work is spent; a rejected candidate returns to its active list.
func NewNimble(interval sim.Duration, gate *machine.BandwidthGate) *Nimble {
	return &Nimble{interval: interval, gate: gate}
}

// Name implements machine.Policy. A gated instance reports its admission
// controller so bake-off tables distinguish the variants.
func (nb *Nimble) Name() string {
	if nb.gate != nil {
		return "nimble+" + nb.gate.Name()
	}
	return "nimble"
}

// Attach starts the per-node scanning daemon.
func (nb *Nimble) Attach(m *machine.Machine) {
	nb.recencyDemoter.Attach(m)
	if nb.gate != nil {
		nb.gate.Attach(m)
	}
	nb.StartNodeDaemons("nimble-scan", nb.interval, func(node mem.NodeID, _ *sim.Daemon) { nb.scan(node) })
}

// scan is one daemon wakeup: vanilla CLOCK aging, then promote every
// recently-referenced page found near the head of the active list — the
// recency-only selection that promotes more pages with a lower re-access
// rate than MULTI-CLOCK (Figs. 8 and 9).
func (nb *Nimble) scan(node mem.NodeID) {
	m := nb.M
	vec := m.Vecs[node]
	stats := vec.ScanCycle(scanBatch)
	nb.ScanTax(stats)

	if m.Mem.Nodes[node].Tier == m.Mem.FastestTier() {
		return
	}
	candidates := vec.AppendActiveReferenced(nb.promoteBuf[:0], scanBatch, scanBatch)
	nb.promoteBuf = candidates[:0]
	nb.QueueDepth(len(candidates))
	for _, pg := range candidates {
		if nb.gate != nil && !nb.gate.Admit(pg, m.Clock.Now()) {
			// Refused by the admission gate: back to the active list
			// without spending a migration attempt.
			m.Vecs[pg.Node].Putback(pg)
			continue
		}
		if promoteUp(m, pg, nb.makeRoom) {
			nb.Promotions++
		} else {
			// No retry path in Nimble: a failed promotion is abandoned.
			m.Vecs[pg.Node].Note(pg, lru.CausePromoteDrop)
			m.Vecs[pg.Node].Putback(pg)
		}
	}
}
