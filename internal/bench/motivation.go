package bench

import (
	"fmt"
	"strings"

	"multiclock/internal/machine"
	"multiclock/internal/mem"
	"multiclock/internal/pagetable"
	"multiclock/internal/policy"
	"multiclock/internal/runner"
	"multiclock/internal/sim"
	"multiclock/internal/stats"
)

// The paper's Fig. 1/2 traces come from RUBiS, SPECpower, and two Dacapo
// workloads. Those applications (and their JVMs) are not reproducible
// here; per the substitution rule, pattern generators synthesize access
// streams with the page-class structure §II-A identifies in them:
// DRAM-friendly pages (frequently accessed throughout), tier-friendly
// pages (bimodal: phases of heavy access alternating with idleness), and
// cold pages (rare accesses). The per-workload presets vary only the mix
// and the phase geometry, which is what the figures demonstrate.
type pattern struct {
	Name string
	// Pages is the population size.
	Pages int
	// Fractions of each class; the remainder is cold.
	DRAMFriendly float64
	TierFriendly float64
	// Phase is the tier-friendly on/off phase length.
	Phase sim.Duration
	// PhaseGroups staggers tier-friendly pages into this many groups with
	// offset phases, so different pages are hot at different times.
	PhaseGroups int
	// OpGap is the think time between accesses.
	OpGap sim.Duration
}

// patterns holds the presets loosely mirroring the four Fig. 1 workloads,
// in figure order.
var patterns = []pattern{
	// rubis: OLTP with a solid hot set and many bimodal pages.
	{Name: "rubis", Pages: 400, DRAMFriendly: 0.15, TierFriendly: 0.35, Phase: 4 * sim.Second, PhaseGroups: 4, OpGap: 2 * sim.Microsecond},
	// specpower: steady OLTP at 80% load — larger always-hot set.
	{Name: "specpower", Pages: 400, DRAMFriendly: 0.3, TierFriendly: 0.2, Phase: 6 * sim.Second, PhaseGroups: 3, OpGap: 2 * sim.Microsecond},
	// xalan: XML transform — strong phase behaviour.
	{Name: "xalan", Pages: 400, DRAMFriendly: 0.1, TierFriendly: 0.5, Phase: 3 * sim.Second, PhaseGroups: 5, OpGap: 2 * sim.Microsecond},
	// lusearch: search over a corpus — mostly cold with a small hot index.
	{Name: "lusearch", Pages: 400, DRAMFriendly: 0.1, TierFriendly: 0.15, Phase: 5 * sim.Second, PhaseGroups: 2, OpGap: 2 * sim.Microsecond},
}

// runPattern drives the pattern on machine m for the given virtual
// duration, returning the VMA holding the page population (its VPNs are
// what a heatmap should sample).
func runPattern(m *machine.Machine, as *pagetable.AddressSpace, p pattern, duration sim.Duration, seed uint64) *pagetable.VMA {
	if p.Pages <= 0 {
		panic("bench: pattern needs pages")
	}
	rng := sim.NewRNG(seed)
	vma := as.Mmap(p.Pages, false, "pattern-"+p.Name)
	// Touch everything once so the population exists.
	m.AccessRange(as, vma.Start, p.Pages, false, 1)

	nDRAM := int(float64(p.Pages) * p.DRAMFriendly)
	nTier := int(float64(p.Pages) * p.TierFriendly)
	groups := max(p.PhaseGroups, 1)

	end := m.Clock.Now() + sim.Time(duration)
	for m.Clock.Now() < end {
		r := rng.Float64()
		var idx int
		switch {
		case r < 0.55:
			// DRAM-friendly class takes most accesses.
			idx = rng.Intn(max(nDRAM, 1))
		case r < 0.93:
			// Tier-friendly: only pages whose group is in its hot phase
			// get accessed.
			if nTier == 0 {
				idx = rng.Intn(p.Pages)
				break
			}
			phase := int(m.Clock.Now()/sim.Time(p.Phase)) % groups
			gsize := max(nTier/groups, 1)
			lo := nDRAM + phase*gsize
			idx = lo + rng.Intn(gsize)
			if idx >= nDRAM+nTier {
				idx = nDRAM + nTier - 1
			}
		default:
			// Cold tail.
			coldLo := nDRAM + nTier
			if coldLo >= p.Pages {
				coldLo = p.Pages - 1
			}
			idx = coldLo + rng.Intn(max(p.Pages-coldLo, 1))
		}
		m.Access(as, vma.Start+pagetable.VPN(idx), rng.Intn(4) == 0)
		if p.OpGap > 0 {
			m.Compute(p.OpGap)
		}
		m.EndOp()
	}
	return vma
}

// scalePattern rescales a preset's phase geometry (written against an
// implied 20-second execution) to the experiment's compressed duration, so
// tier-friendly pages still flip phases several times per run.
func scalePattern(p pattern, duration sim.Duration) pattern {
	p.Phase = sim.Duration(float64(p.Phase) * float64(duration) / float64(20*sim.Second))
	if p.Phase <= 0 {
		p.Phase = duration / 8
	}
	return p
}

// heatmap records access counts for a sampled set of one address space's
// pages over fixed time windows — the Fig. 1 measurement ("we randomly
// sampled pages from memory, assigned them unique identifiers, and traced
// the accesses").
type heatmap struct {
	space  int32
	rows   map[uint64]int // page VA base → row
	window sim.Duration
	counts [][]int64 // [row][window]
}

// newHeatmap samples the given VPNs of address space `space`.
func newHeatmap(space int32, vpns []pagetable.VPN, window sim.Duration) *heatmap {
	if window <= 0 {
		panic("bench: heatmap window must be positive")
	}
	h := &heatmap{
		space:  space,
		rows:   make(map[uint64]int, len(vpns)),
		window: window,
		counts: make([][]int64, len(vpns)),
	}
	for i, v := range vpns {
		h.rows[v.Addr()] = i
	}
	return h
}

// OnAccess implements machine.Observer.
func (h *heatmap) OnAccess(pg *mem.Page, write bool, now sim.Time) {
	if pg.Space != h.space {
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
func (h *heatmap) OnMigrate(pg *mem.Page, from, to mem.NodeID, now sim.Time) {}

// OnFault implements machine.Observer.
func (h *heatmap) OnFault(pg *mem.Page, hint bool, now sim.Time) {}

// windows returns the widest row length.
func (h *heatmap) windows() int {
	w := 0
	for _, row := range h.counts {
		w = max(w, len(row))
	}
	return w
}

// render draws the heatmap as ASCII art: one row per sampled page, darker
// glyphs for higher access intensity.
func (h *heatmap) render() string {
	glyphs := []byte(" .:-=+*#%@")
	windows := h.windows()
	var most int64 = 1
	for _, row := range h.counts {
		for _, c := range row {
			most = max(most, c)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "heatmap: %d sampled pages × %d windows of %v (max %d accesses)\n",
		len(h.counts), windows, h.window, most)
	for i, row := range h.counts {
		fmt.Fprintf(&b, "%3d |", i)
		for w := 0; w < windows; w++ {
			var c int64
			if w < len(row) {
				c = row[w]
			}
			b.WriteByte(glyphs[int(c*int64(len(glyphs)-1)/most)])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// windowFreq performs the Fig. 2 analysis: execution time is divided into
// (observation window, performance window) pairs; pages accessed exactly
// once in an observation window are compared against pages accessed
// multiple times, by their mean access counts in the following performance
// window. The paper's finding — multi-access pages are accessed much more
// afterwards — is MULTI-CLOCK's design hypothesis.
type windowFreq struct {
	obsWidth, perfWidth sim.Duration

	curPair             int64
	obsCnt              map[uint64]int64 // page VA → obs-window accesses (current pair)
	perfCnt             map[uint64]int64 // page VA → perf-window accesses (current pair)
	finSingle, finMulti struct {
		pages    int64
		accesses int64
	}
}

// newWindowFreq creates the analyzer with the given window widths.
func newWindowFreq(obs, perf sim.Duration) *windowFreq {
	if obs <= 0 || perf <= 0 {
		panic("bench: window widths must be positive")
	}
	return &windowFreq{
		obsWidth:  obs,
		perfWidth: perf,
		obsCnt:    make(map[uint64]int64),
		perfCnt:   make(map[uint64]int64),
	}
}

// OnAccess implements machine.Observer.
func (w *windowFreq) OnAccess(pg *mem.Page, write bool, now sim.Time) {
	period := int64(w.obsWidth + w.perfWidth)
	pair := int64(now) / period
	if pair != w.curPair {
		w.finishPair()
		w.curPair = pair
	}
	if int64(now)%period < int64(w.obsWidth) {
		w.obsCnt[pg.VA]++
	} else {
		w.perfCnt[pg.VA]++
	}
}

// OnMigrate implements machine.Observer.
func (w *windowFreq) OnMigrate(pg *mem.Page, from, to mem.NodeID, now sim.Time) {}

// OnFault implements machine.Observer.
func (w *windowFreq) OnFault(pg *mem.Page, hint bool, now sim.Time) {}

// finishPair folds the current pair's counts into the aggregates.
func (w *windowFreq) finishPair() {
	for va, oc := range w.obsCnt {
		pc := w.perfCnt[va]
		if oc == 1 {
			w.finSingle.pages++
			w.finSingle.accesses += pc
		} else if oc > 1 {
			w.finMulti.pages++
			w.finMulti.accesses += pc
		}
	}
	clear(w.obsCnt)
	clear(w.perfCnt)
}

// windowFreqResult reports the Fig. 2 comparison.
type windowFreqResult struct {
	SinglePages, MultiPages int64
	// SingleMean and MultiMean are the average performance-window access
	// count of each class.
	SingleMean, MultiMean float64
}

// result finalizes any open pair and returns the aggregate comparison.
func (w *windowFreq) result() windowFreqResult {
	w.finishPair()
	r := windowFreqResult{
		SinglePages: w.finSingle.pages,
		MultiPages:  w.finMulti.pages,
	}
	if r.SinglePages > 0 {
		r.SingleMean = float64(w.finSingle.accesses) / float64(r.SinglePages)
	}
	if r.MultiPages > 0 {
		r.MultiMean = float64(w.finMulti.accesses) / float64(r.MultiPages)
	}
	return r
}

// fig1 regenerates the motivation heatmaps: access frequency of 50 sampled
// pages over time for the four workload patterns (RUBiS, SPECpower, xalan,
// lusearch analogues — see the substitution note on pattern). Each pattern
// runs on its own machine, so the four render in parallel.
func fig1(opt Options) string {
	sc := opt.scale()
	duration := 20 * sc.Interval
	sections := runner.Map(opt.workers(), patterns, func(_ int, preset pattern) string {
		p := scalePattern(preset, duration)
		m := sc.machineWith(policy.NewStatic())
		as := m.NewSpace()

		// Pre-plan the sample rows: the pattern VMA is the first mapping
		// in a fresh space, so its VPNs are deterministic. Run a probe
		// first to learn the VMA start.
		probeVMA := as.Mmap(1, false, "probe")
		sampleBase := probeVMA.End + 1 // the pattern VMA will start here
		rng := sim.NewRNG(opt.Seed ^ 77)
		var samples []pagetable.VPN
		for _, idx := range rng.Perm(p.Pages)[:50] {
			samples = append(samples, sampleBase+pagetable.VPN(idx))
		}
		h := newHeatmap(as.ID, samples, duration/40)
		m.Attach(h)
		runPattern(m, as, p, duration, opt.Seed)

		return fmt.Sprintf("--- %s ---\n%s\n", p.Name, h.render())
	})
	var b strings.Builder
	b.WriteString("Fig. 1 — page access heatmaps, 50 sampled pages × time windows\n")
	b.WriteString("(synthetic analogues of RUBiS/SPECpower/xalan/lusearch; see DESIGN.md)\n\n")
	for _, s := range sections {
		b.WriteString(s)
	}
	return b.String()
}

// fig2 regenerates the observation/performance window frequency analysis:
// pages accessed multiple times in an observation window are accessed far
// more in the following performance window than single-access pages.
func fig2(opt Options) string {
	sc := opt.scale()
	duration := 24 * sc.Interval
	rows := runner.Map(opt.workers(), patterns, func(_ int, preset pattern) []string {
		p := scalePattern(preset, duration)
		m := sc.machineWith(policy.NewStatic())
		as := m.NewSpace()
		wf := newWindowFreq(2*sc.Interval, 2*sc.Interval)
		m.Attach(wf)
		runPattern(m, as, p, duration, opt.Seed)
		res := wf.result()
		return []string{p.Name,
			fmt.Sprintf("%.2f", res.SingleMean),
			fmt.Sprintf("%.2f", res.MultiMean),
			fmt.Sprintf("%.1fx", safeDiv(res.MultiMean, res.SingleMean))}
	})
	tb := stats.NewTable(
		"Fig. 2 — mean performance-window accesses by observation-window class",
		"workload", "single-access pages", "multi-access pages", "ratio")
	for _, row := range rows {
		tb.AddRow(row...)
	}
	return tb.String() +
		"\nexpected shape: multi-access pages dominate — the basis of MULTI-CLOCK's\n" +
		"two-reference promote-list selection (§II-A)\n"
}
