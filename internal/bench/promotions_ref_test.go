package bench

// The promotion tracker as it was before it moved into this package, kept
// verbatim (renamed, with the stats.WindowSeries it counted into) as the
// reference TestPromotionTrackerMatchesReference holds the per-window slices
// against: it counted every promotion twice, once in the series and once in
// a window-keyed map, and kept re-accesses in a second map.

import (
	"multiclock/internal/machine"
	"multiclock/internal/mem"
	"multiclock/internal/sim"
)

type refWindowSeries struct {
	Width   int64
	count   map[int64]int64
	sum     map[int64]float64
	maxSeen int64
	any     bool
}

func newRefWindowSeries(width int64) *refWindowSeries {
	if width <= 0 {
		panic("stats: window width must be positive")
	}
	return &refWindowSeries{
		Width: width,
		count: make(map[int64]int64),
		sum:   make(map[int64]float64),
	}
}

func (w *refWindowSeries) Observe(t int64, v float64) {
	id := t / w.Width
	w.count[id]++
	w.sum[id] += v
	if id > w.maxSeen {
		w.maxSeen = id
	}
	w.any = true
}

func (w *refWindowSeries) Count(t int64) { w.Observe(t, 1) }

func (w *refWindowSeries) Windows() int {
	if !w.any {
		return 0
	}
	return int(w.maxSeen) + 1
}

func (w *refWindowSeries) Sum(id int) float64 { return w.sum[int64(id)] }

func (w *refWindowSeries) Sums() []float64 {
	out := make([]float64, w.Windows())
	for i := range out {
		out[i] = w.Sum(i)
	}
	return out
}

// tierFunc resolves a node to its memory tier.
type tierFunc func(mem.NodeID) mem.Tier

type refPromotionTracker struct {
	Window sim.Duration

	promos *refWindowSeries
	tierOf tierFunc

	pending   map[uint64]int
	promoted  map[int64]int64 // window → promotions
	reaccess  map[int64]int64 // window → promoted pages re-accessed
	demotions int64
}

func newRefPromotionTracker(window sim.Duration) *refPromotionTracker {
	if window <= 0 {
		window = 20 * sim.Second
	}
	return &refPromotionTracker{
		Window:   window,
		promos:   newRefWindowSeries(int64(window)),
		pending:  make(map[uint64]int),
		promoted: make(map[int64]int64),
		reaccess: make(map[int64]int64),
	}
}

func (p *refPromotionTracker) OnMigrate(pg *mem.Page, from, to mem.NodeID, now sim.Time) {
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

func (p *refPromotionTracker) Bind(m *machine.Machine) *refPromotionTracker {
	p.tierOf = func(id mem.NodeID) mem.Tier { return m.Mem.Nodes[id].Tier }
	return p
}

func (p *refPromotionTracker) OnAccess(pg *mem.Page, write bool, now sim.Time) {
	w, ok := p.pending[pg.Seq]
	if !ok {
		return
	}
	delete(p.pending, pg.Seq)
	p.reaccess[int64(w)]++
}

func (p *refPromotionTracker) OnFault(pg *mem.Page, hint bool, now sim.Time) {}

func (p *refPromotionTracker) Promotions() []float64 { return p.promos.Sums() }

func (p *refPromotionTracker) ReaccessPercent() []float64 {
	n := p.promos.Windows()
	out := make([]float64, n)
	for w := 0; w < n; w++ {
		if total := p.promoted[int64(w)]; total > 0 {
			out[w] = 100 * float64(p.reaccess[int64(w)]) / float64(total)
		}
	}
	return out
}

func (p *refPromotionTracker) TotalPromotions() int64 {
	var t int64
	for _, c := range p.promoted {
		t += c
	}
	return t
}

func (p *refPromotionTracker) MeanReaccessPercent() float64 {
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

func (p *refPromotionTracker) Demotions() int64 { return p.demotions }
