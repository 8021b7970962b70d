// Package trace provides the telemetry used by the paper's motivation and
// analysis experiments: page-access heatmaps over sampled pages (Fig. 1),
// observation/performance window frequency analysis (Fig. 2), promotion
// counts per time window (Fig. 8), and re-access percentages of recently
// promoted pages (Fig. 9). All of it hangs off the machine's Observer hook.
package trace

import (
	"fmt"
	"strings"

	"multiclock/internal/machine"
	"multiclock/internal/mem"
	"multiclock/internal/pagetable"
	"multiclock/internal/sim"
	"multiclock/internal/stats"
)

// Heatmap records access counts for a sampled set of pages over fixed time
// windows — the Fig. 1 measurement ("we randomly sampled pages from memory,
// assigned them unique identifiers, and traced the accesses").
type Heatmap struct {
	rows   map[uint64]int // page VA base → row
	window sim.Duration
	counts [][]int64 // [row][window]
	spaces map[int32]bool
}

// NewHeatmap samples the given VPNs of the given address-space IDs.
func NewHeatmap(vpns []pagetable.VPN, spaces []int32, window sim.Duration) *Heatmap {
	if window <= 0 {
		panic("trace: heatmap window must be positive")
	}
	h := &Heatmap{
		rows:   make(map[uint64]int, len(vpns)),
		window: window,
		counts: make([][]int64, len(vpns)),
		spaces: make(map[int32]bool, len(spaces)),
	}
	for i, v := range vpns {
		h.rows[v.Addr()] = i
	}
	for _, s := range spaces {
		h.spaces[s] = true
	}
	return h
}

// OnAccess implements machine.Observer.
func (h *Heatmap) OnAccess(pg *mem.Page, write bool, now sim.Time) {
	if !h.spaces[pg.Space] {
		return
	}
	row, ok := h.rows[pg.VA]
	if !ok {
		return
	}
	w := int(now / sim.Time(h.window))
	for len(h.counts[row]) <= w {
		h.counts[row] = append(h.counts[row], 0)
	}
	h.counts[row][w]++
}

// OnMigrate implements machine.Observer.
func (h *Heatmap) OnMigrate(pg *mem.Page, from, to mem.NodeID, now sim.Time) {}

// OnFault implements machine.Observer.
func (h *Heatmap) OnFault(pg *mem.Page, hint bool, now sim.Time) {}

// Windows returns the widest row length.
func (h *Heatmap) Windows() int {
	w := 0
	for _, row := range h.counts {
		if len(row) > w {
			w = len(row)
		}
	}
	return w
}

// Count returns the access count of sample row in window w.
func (h *Heatmap) Count(row, w int) int64 {
	if row < 0 || row >= len(h.counts) || w < 0 || w >= len(h.counts[row]) {
		return 0
	}
	return h.counts[row][w]
}

// Render draws the heatmap as ASCII art: one row per sampled page, darker
// glyphs for higher access intensity.
func (h *Heatmap) Render() string {
	glyphs := []byte(" .:-=+*#%@")
	windows := h.Windows()
	var max int64 = 1
	for _, row := range h.counts {
		for _, c := range row {
			if c > max {
				max = c
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "heatmap: %d sampled pages × %d windows of %v (max %d accesses)\n",
		len(h.counts), windows, h.window, max)
	for i, row := range h.counts {
		fmt.Fprintf(&b, "%3d |", i)
		for w := 0; w < windows; w++ {
			var c int64
			if w < len(row) {
				c = row[w]
			}
			idx := int(c * int64(len(glyphs)-1) / max)
			b.WriteByte(glyphs[idx])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// tierFunc resolves a node to its memory tier.
type tierFunc func(mem.NodeID) mem.Tier

// PromotionTracker measures Fig. 8 (promotions per window) and Fig. 9
// (re-access percentage of recently promoted pages). Bind must be called
// with the machine before events arrive so migrations can be classified as
// promotions or demotions.
type PromotionTracker struct {
	Window sim.Duration

	promos *stats.WindowSeries
	tierOf tierFunc

	// pending maps a promoted page — by Seq: the entry can outlive the
	// page, and the descriptor is reissued — to its promotion window, until
	// the page is re-accessed or demoted.
	pending   map[uint64]int
	promoted  map[int64]int64 // window → promotions
	reaccess  map[int64]int64 // window → promoted pages re-accessed
	demotions int64
}

// NewPromotionTracker uses the paper's 20-second windows by default.
func NewPromotionTracker(window sim.Duration) *PromotionTracker {
	if window <= 0 {
		window = 20 * sim.Second
	}
	return &PromotionTracker{
		Window:   window,
		promos:   stats.NewWindowSeries(int64(window)),
		pending:  make(map[uint64]int),
		promoted: make(map[int64]int64),
		reaccess: make(map[int64]int64),
	}
}

// OnMigrate implements machine.Observer.
func (p *PromotionTracker) OnMigrate(pg *mem.Page, from, to mem.NodeID, now sim.Time) {
	if p.tierOf == nil {
		return
	}
	if p.tierOf(to) < p.tierOf(from) {
		w := int64(now) / int64(p.Window)
		p.promos.Count(int64(now))
		p.promoted[w]++
		p.pending[pg.Seq] = int(w)
	} else if p.tierOf(to) > p.tierOf(from) {
		p.demotions++
		delete(p.pending, pg.Seq)
	}
}

// Bind supplies the node→tier mapping (from the machine's memory system).
func (p *PromotionTracker) Bind(m *machine.Machine) *PromotionTracker {
	p.tierOf = func(id mem.NodeID) mem.Tier { return m.Mem.Nodes[id].Tier }
	return p
}

// OnAccess implements machine.Observer: the first access to a page after
// its promotion marks it re-accessed.
func (p *PromotionTracker) OnAccess(pg *mem.Page, write bool, now sim.Time) {
	w, ok := p.pending[pg.Seq]
	if !ok {
		return
	}
	delete(p.pending, pg.Seq)
	p.reaccess[int64(w)]++
}

// OnFault implements machine.Observer.
func (p *PromotionTracker) OnFault(pg *mem.Page, hint bool, now sim.Time) {}

// Promotions returns per-window promotion counts (Fig. 8 series).
func (p *PromotionTracker) Promotions() []float64 { return p.promos.Sums() }

// ReaccessPercent returns the per-window percentage of promoted pages that
// were re-accessed after promotion (Fig. 9 series).
func (p *PromotionTracker) ReaccessPercent() []float64 {
	n := p.promos.Windows()
	out := make([]float64, n)
	for w := 0; w < n; w++ {
		if total := p.promoted[int64(w)]; total > 0 {
			out[w] = 100 * float64(p.reaccess[int64(w)]) / float64(total)
		}
	}
	return out
}

// TotalPromotions returns the total promotions observed.
func (p *PromotionTracker) TotalPromotions() int64 {
	var t int64
	for _, c := range p.promoted {
		t += c
	}
	return t
}

// MeanReaccessPercent returns the overall re-access percentage.
func (p *PromotionTracker) MeanReaccessPercent() float64 {
	var promoted, re int64
	for w, c := range p.promoted {
		promoted += c
		re += p.reaccess[w]
	}
	if promoted == 0 {
		return 0
	}
	return 100 * float64(re) / float64(promoted)
}

// Demotions returns the demotion count observed.
func (p *PromotionTracker) Demotions() int64 { return p.demotions }
