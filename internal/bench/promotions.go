package bench

import (
	"multiclock/internal/machine"
	"multiclock/internal/mem"
	"multiclock/internal/sim"
)

// PromotionTracker measures Fig. 8 (promotions per window) and Fig. 9
// (re-access percentage of recently promoted pages). It is bound to one
// machine, whose tiers classify each migration as a promotion or a
// demotion; attach it to that machine to feed it.
type PromotionTracker struct {
	Window sim.Duration

	nodes []*mem.Node

	// pending maps a promoted page — by Seq: the entry can outlive the
	// page, and the descriptor is reissued — to its promotion window, until
	// the page is re-accessed or demoted.
	pending map[uint64]int
	// promoted[w] counts the promotions in window w; reaccess[w] how many
	// of those pages were accessed again before being demoted.
	promoted, reaccess []int64
	demotions          int64
}

// NewPromotionTracker builds a tracker for machine m with the given
// window, the paper's 20 seconds when window is not positive.
func NewPromotionTracker(m *machine.Machine, window sim.Duration) *PromotionTracker {
	if window <= 0 {
		window = 20 * sim.Second
	}
	return &PromotionTracker{
		Window:  window,
		nodes:   m.Mem.Nodes,
		pending: make(map[uint64]int),
	}
}

// OnMigrate implements machine.Observer.
func (p *PromotionTracker) OnMigrate(pg *mem.Page, from, to mem.NodeID, now sim.Time) {
	switch src, dst := p.nodes[from].Tier, p.nodes[to].Tier; {
	case dst < src:
		w := int(int64(now) / int64(p.Window))
		for len(p.promoted) <= w {
			p.promoted = append(p.promoted, 0)
			p.reaccess = append(p.reaccess, 0)
		}
		p.promoted[w]++
		p.pending[pg.Seq] = w
	case dst > src:
		p.demotions++
		delete(p.pending, pg.Seq)
	}
}

// OnAccess implements machine.Observer: the first access to a page after
// its promotion marks it re-accessed.
func (p *PromotionTracker) OnAccess(pg *mem.Page, write bool, now sim.Time) {
	w, ok := p.pending[pg.Seq]
	if !ok {
		return
	}
	delete(p.pending, pg.Seq)
	p.reaccess[w]++
}

// OnFault implements machine.Observer.
func (p *PromotionTracker) OnFault(pg *mem.Page, hint bool, now sim.Time) {}

// Promotions returns per-window promotion counts (Fig. 8 series), from
// window 0 through the last window with a promotion.
func (p *PromotionTracker) Promotions() []float64 {
	out := make([]float64, len(p.promoted))
	for w, c := range p.promoted {
		out[w] = float64(c)
	}
	return out
}

// ReaccessPercent returns the per-window percentage of promoted pages that
// were re-accessed after promotion (Fig. 9 series).
func (p *PromotionTracker) ReaccessPercent() []float64 {
	out := make([]float64, len(p.promoted))
	for w, c := range p.promoted {
		if c > 0 {
			out[w] = 100 * float64(p.reaccess[w]) / float64(c)
		}
	}
	return out
}

// TotalPromotions returns the total promotions observed.
func (p *PromotionTracker) TotalPromotions() int64 { return sum(p.promoted) }

// MeanReaccessPercent returns the overall re-access percentage.
func (p *PromotionTracker) MeanReaccessPercent() float64 {
	promoted := sum(p.promoted)
	if promoted == 0 {
		return 0
	}
	return 100 * float64(sum(p.reaccess)) / float64(promoted)
}

// Demotions returns the demotion count observed.
func (p *PromotionTracker) Demotions() int64 { return p.demotions }

func sum(s []int64) int64 {
	var t int64
	for _, c := range s {
		t += c
	}
	return t
}
