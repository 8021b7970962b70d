package policy

import (
	"sort"

	"multiclock/internal/lru"
	"multiclock/internal/machine"
	"multiclock/internal/mem"
	"multiclock/internal/sim"
)

// AMPSelector picks one of AMP's page-selection mechanisms (§II-D): the
// classic cache-replacement policies applied to tier placement.
type AMPSelector int

const (
	// AMPLRU selects by exact recency (least/most recently used).
	AMPLRU AMPSelector = iota
	// AMPLFU selects by exact frequency — the policy the paper deems
	// impractical to track on a real system but evaluable on an
	// emulator; our simulator is exactly such an emulator.
	AMPLFU
	// AMPRandom selects uniformly at random.
	AMPRandom
)

// String names the selector as the policy name suffix.
func (s AMPSelector) String() string {
	switch s {
	case AMPLRU:
		return "amp-lru"
	case AMPLFU:
		return "amp-lfu"
	default:
		return "amp-random"
	}
}

const (
	// ampMigrateBatch bounds promotions (and matching demotions) per
	// interval.
	ampMigrateBatch = 512
	// ampSeed seeds the random selector's private stream. It is a constant,
	// so -seed does not reach it.
	ampSeed = 0xa3b
)

// AMP reimplements the AMP tiered-memory baseline: full per-page profiling
// of every access (exact recency and frequency — feasible only because
// this is a simulator, which is the paper's §II-D point about AMP being
// emulator-only), with periodic exchange of the hottest PM pages against
// the coldest DRAM pages under the chosen selector. Under LFU the frequency
// counters halve every interval, aging the history.
type AMP struct {
	machine.Base
	sel      AMPSelector
	interval sim.Duration
	rng      *sim.RNG

	// prof is the exact profile of every page accessed since its birth; a
	// page without an entry has a zero profile.
	prof *mem.Side[ampProfile]

	Promotions int64
}

// ampProfile is one page's exact profile: its access count and the virtual
// time of its last access. Real kernels cannot afford either (the paper's
// argument against LFU, §II-D).
type ampProfile struct {
	freq    uint32
	lastUse sim.Time
}

// NewAMP returns the baseline under selector sel, rebalancing every
// interval.
func NewAMP(sel AMPSelector, interval sim.Duration) *AMP {
	return &AMP{sel: sel, interval: interval, rng: sim.NewRNG(ampSeed)}
}

// Name implements machine.Policy.
func (a *AMP) Name() string { return a.sel.String() }

// Attach starts the periodic migration daemon.
func (a *AMP) Attach(m *machine.Machine) {
	a.Base.Attach(m)
	a.prof = mem.NewSide[ampProfile](m.Mem)
	a.StartDaemon("amp", a.interval, func(*sim.Daemon) { a.rebalance() })
}

// Access profiles every access exactly — AMP's defining (and, on real
// hardware, disqualifying) requirement — then charges base latency.
func (a *AMP) Access(pg *mem.Page, write bool) sim.Duration {
	p := a.prof.Put(pg)
	p.freq++
	p.lastUse = a.M.Clock.Now()
	return a.Base.Access(pg, write)
}

// hotness scores a page for promotion under the selector; higher is
// hotter.
func (a *AMP) hotness(pg *mem.Page) float64 {
	switch a.sel {
	case AMPLFU:
		return float64(a.prof.Value(pg).freq)
	case AMPLRU:
		return float64(a.prof.Value(pg).lastUse)
	default:
		return a.rng.Float64()
	}
}

// collect gathers every evictable page of one tier with its score.
type scored struct {
	pg    *mem.Page
	score float64
}

func (a *AMP) collect(t mem.Tier) []scored {
	var out []scored
	for _, id := range a.M.Mem.TierNodes(t) {
		vec := a.M.Vecs[id]
		for k := lru.Kind(0); k < lru.Unevictable; k++ {
			vec.List(k).Each(func(pg *mem.Page) {
				out = append(out, scored{pg, a.hotness(pg)})
			})
		}
	}
	return out
}

// collectLower gathers every evictable page below the fastest tier, in tier
// order (promotion candidates).
func (a *AMP) collectLower() []scored {
	var out []scored
	for _, t := range a.M.Mem.BirthOrder()[1:] {
		out = append(out, a.collect(t)...)
	}
	return out
}

// rebalance is one daemon run: scan and score the full page population
// (AMP's design scans every page — the cost the paper calls impractical),
// then exchange the hottest lower-tier pages against the coldest pages of
// the fastest tier.
func (a *AMP) rebalance() {
	m := a.M
	fastest := m.Mem.FastestTier()
	pmPages := a.collectLower()
	dramPages := a.collect(fastest)
	a.ScanTax(lru.ScanStats{Scanned: len(pmPages) + len(dramPages)})

	sort.Slice(pmPages, func(i, j int) bool { return pmPages[i].score > pmPages[j].score }) // hottest first
	sort.Slice(dramPages, func(i, j int) bool { return dramPages[i].score < dramPages[j].score })

	di := 0
	for i := 0; i < len(pmPages) && i < ampMigrateBatch; i++ {
		hot := pmPages[i].pg
		if !hot.OnList() {
			continue
		}
		dst := m.Mem.PickNode(fastest)
		if dst == mem.NoNode || m.Mem.Nodes[dst].UnderMin() {
			// Exchange: demote the coldest fastest-tier page first.
			for di < len(dramPages) && !dramPages[di].pg.OnList() {
				di++
			}
			if di >= len(dramPages) {
				break
			}
			cold := dramPages[di].pg
			di++
			// Don't displace a page hotter than the one arriving.
			if a.sel != AMPRandom && a.hotness(cold) >= pmPages[i].score {
				break
			}
			pmDst := m.Mem.PickNodeBelow(fastest)
			if pmDst == mem.NoNode || !m.MigratePage(cold, pmDst) {
				break
			}
			dst = m.Mem.PickNode(fastest)
			if dst == mem.NoNode {
				break
			}
		}
		if m.MigratePage(hot, dst) {
			a.Promotions++
		}
	}

	if a.sel == AMPLFU {
		for _, pages := range [][]scored{pmPages, dramPages} {
			for _, s := range pages {
				if p := a.prof.Get(s.pg); p != nil {
					p.freq /= 2
				}
			}
		}
	}
}
