package policy

import (
	"fmt"

	"multiclock/internal/machine"
	"multiclock/internal/mem"
	"multiclock/internal/sim"
)

const (
	// gateWindow is the virtual-time accounting window over which migration
	// bandwidth consumption is measured.
	gateWindow = 1 * sim.Second
	// gateBudget is the fraction of each window migration copies may
	// consume before the gate starts rejecting: migration traffic beyond a
	// few percent of wall time means the copy engine is stealing the
	// bandwidth the promotions were meant to win back.
	gateBudget = 0.05
	// gateHardLimit is the multiple of the budget beyond which everything
	// is rejected, including high-benefit candidates.
	gateHardLimit = 2
)

// BandwidthGate is a TierBPF-style admission controller for promotions
// (arXiv:2604.12300): scanning daemons consult it before each migration,
// and it tracks how much virtual time the machine's copy engine has spent
// inside the current accounting window. Under the budget everything is
// admitted; over it only high-expected-benefit candidates pass (dirty
// pages, whose continued residence in PM pays the tier's expensive writes);
// past the hard limit nothing does. Rejected pages return to their LRU and
// may requalify once bandwidth pressure subsides.
//
// The gate reads only the machine's MigrationBusy counter and virtual
// clock, so it is deterministic and adds no state to any page.
type BandwidthGate struct {
	m *machine.Machine

	// The current window: where it started and how much migration busy
	// time the machine had accumulated at that point.
	windowStart sim.Time
	busyAtStart sim.Duration

	// Admits/Rejects count gate decisions (rejects also aggregate into
	// mem.Counters.AdmissionRejects).
	Admits  int64
	Rejects int64
}

// NewBandwidthGate returns an admission gate.
func NewBandwidthGate() *BandwidthGate { return &BandwidthGate{} }

// Name implements machine.PromotionGate.
func (g *BandwidthGate) Name() string {
	return fmt.Sprintf("bandwidth-gate(%.0f%%/%v)", gateBudget*100, gateWindow)
}

// Attach implements machine.PromotionGate.
func (g *BandwidthGate) Attach(m *machine.Machine) { g.m = m }

// Admit implements machine.PromotionGate.
func (g *BandwidthGate) Admit(pg *mem.Page, now sim.Time) bool {
	if now-g.windowStart >= sim.Time(gateWindow) {
		g.windowStart = now
		g.busyAtStart = g.m.Mem.Counters.MigrationBusy
	}
	spent := g.m.Mem.Counters.MigrationBusy - g.busyAtStart
	frac := float64(gateBudget) // a variable: the product rounds at run time, not exactly at compile time
	budget := sim.Duration(float64(gateWindow) * frac)
	switch {
	case spent < budget:
		g.Admits++
		return true
	case spent < sim.Duration(float64(budget)*gateHardLimit) && pg.Flags.Has(mem.FlagDirty):
		// Over budget: spend what remains only on the candidates whose
		// stay in PM is costliest.
		g.Admits++
		return true
	default:
		g.Rejects++
		g.m.Mem.Counters.AdmissionRejects++
		return false
	}
}

var _ machine.PromotionGate = (*BandwidthGate)(nil)
