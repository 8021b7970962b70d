package policy

import (
	"multiclock/internal/machine"
	"multiclock/internal/mem"
	"multiclock/internal/sim"
)

// NimbleConfig tunes the Nimble page-selection baseline.
type NimbleConfig struct {
	// ScanInterval matches kpromoted's period for a fair comparison; the
	// paper uses 1 s for both systems (§V-C).
	ScanInterval sim.Duration
	// ScanBatch is pages examined per wakeup (1024 in the paper).
	ScanBatch int
	// Gate, when non-nil, is a promotion admission controller consulted
	// once per candidate before any migration work is spent. A rejected
	// candidate returns to its active list.
	Gate machine.PromotionGate
}

// DefaultNimbleConfig mirrors the paper's settings.
func DefaultNimbleConfig() NimbleConfig {
	return NimbleConfig{ScanInterval: 1 * sim.Second, ScanBatch: 1024}
}

// Nimble reimplements the page *selection* mechanism of Nimble as the paper
// did for its comparison (§II-D): Linux's stock CLOCK profiling (recency
// only — a single recent reference qualifies a page) with the most recently
// accessed pages of the lower tier exchanged into DRAM, single-threaded.
// Migration-mechanism optimizations (multi-threaded copy, THP exchange) are
// out of scope exactly as in the paper's comparison.
type Nimble struct {
	recencyDemoter
	cfg NimbleConfig

	// Promotions counts pages moved up; exposed for Fig. 8 telemetry.
	Promotions int64

	// promoteBuf is the reusable candidate buffer (allocation-free wakeups).
	promoteBuf []*mem.Page
}

// NewNimble returns the Nimble-selection baseline.
func NewNimble(cfg NimbleConfig) *Nimble {
	if cfg.ScanInterval <= 0 {
		cfg.ScanInterval = 1 * sim.Second
	}
	if cfg.ScanBatch <= 0 {
		cfg.ScanBatch = 1024
	}
	return &Nimble{recencyDemoter: recencyDemoter{batch: cfg.ScanBatch}, cfg: cfg}
}

// Name implements machine.Policy. A gated instance reports its admission
// controller so bake-off tables distinguish the variants.
func (nb *Nimble) Name() string {
	if nb.cfg.Gate != nil {
		return "nimble+" + nb.cfg.Gate.Name()
	}
	return "nimble"
}

// Attach starts the per-node scanning daemon.
func (nb *Nimble) Attach(m *machine.Machine) {
	nb.Base.Attach(m)
	if nb.cfg.Gate != nil {
		nb.cfg.Gate.Attach(m)
	}
	nb.StartNodeDaemons("nimble-scan", nb.cfg.ScanInterval, func(node mem.NodeID, _ *sim.Daemon) { nb.scan(node) })
}

// scan is one daemon wakeup: vanilla CLOCK aging, then promote every
// recently-referenced page found near the head of the active list — the
// recency-only selection that promotes more pages with a lower re-access
// rate than MULTI-CLOCK (Figs. 8 and 9).
func (nb *Nimble) scan(node mem.NodeID) {
	m := nb.M
	vec := m.Vecs[node]
	stats := vec.ScanCycleRecency(nb.cfg.ScanBatch)
	nb.ScanTax(stats)

	if m.Mem.Nodes[node].Tier == m.Mem.FastestTier() {
		return
	}
	candidates := vec.AppendActiveReferenced(nb.promoteBuf[:0], nb.cfg.ScanBatch, nb.cfg.ScanBatch)
	nb.promoteBuf = candidates[:0]
	nb.QueueDepth(len(candidates))
	for _, pg := range candidates {
		if nb.cfg.Gate != nil && !nb.cfg.Gate.Admit(pg, m.Clock.Now()) {
			// Refused by the admission gate: back to the active list
			// without spending a migration attempt.
			m.Vecs[pg.Node].Putback(pg)
			continue
		}
		if promoteUp(m, pg, nb.makeRoom) {
			nb.Promotions++
		} else {
			// No retry path in Nimble: a failed promotion is abandoned.
			if l := m.Lifecycle; l != nil {
				l.PromoteDropped(pg, m.Clock.Now())
			}
			m.Vecs[pg.Node].Putback(pg)
		}
	}
}
