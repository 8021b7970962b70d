package policy

import (
	"multiclock/internal/lru"
	"multiclock/internal/machine"
	"multiclock/internal/mem"
	"multiclock/internal/pagetable"
	"multiclock/internal/sim"
)

// ATMode selects the AutoTiering variant.
type ATMode int

const (
	// CPM is AutoTiering's conservative promotion approach: promote on
	// repeated hint faults, exchanging with an upper-tier page chosen
	// without coldness information when DRAM is full (§II-D). Its
	// performance therefore "highly depends on the initial placement of
	// the pages" (§V-C.1).
	CPM ATMode = iota
	// OPM adds the opportunistic demotion path: an N-bit per-page history
	// vector identifies cold upper-tier pages to demote proactively, at
	// the price of extra tracking overhead (§II-D).
	OPM
)

// String names the mode as the paper abbreviates it.
func (m ATMode) String() string {
	if m == CPM {
		return "at-cpm"
	}
	return "at-opm"
}

const (
	// atPoisonFrac is the fraction of each address space's mapped pages
	// poisoned per interval. Software-fault tracking cannot afford full
	// coverage on large memories (the paper's core criticism, §II-D); the
	// value mirrors AutoNUMA's bounded scan rate relative to the paper-scale
	// footprint.
	atPoisonFrac = 0.125
	// atHistBits is the length of OPM's per-page coldness vector.
	atHistBits = 4
	// atDemoteBatch caps OPM demotions per interval.
	atDemoteBatch = 1024
)

// AutoTiering implements both AT-CPM and AT-OPM. Page access tracking uses
// hint page faults: the scanner poisons a rotating sample of PTEs, and the
// next access to a poisoned page takes a software fault whose cost lands
// directly on the application — the overhead the paper identifies as these
// systems' weakness.
type AutoTiering struct {
	machine.Base
	mode     ATMode
	interval sim.Duration

	// cursor tracks the poisoning position per address space.
	cursor map[int32]pagetable.VPN

	// lastHint is the virtual time of each page's last hint fault; a page
	// without an entry never faulted. Only OPM's coldness test reads it, so
	// only OPM records it.
	lastHint *mem.Side[sim.Time]

	// Promotions and Exchanges are exposed for analysis.
	Promotions int64
	Exchanges  int64
	Demotions  int64
}

// NewAutoTiering returns the policy for the given variant, its hint-fault
// scanner waking every interval.
func NewAutoTiering(mode ATMode, interval sim.Duration) *AutoTiering {
	return &AutoTiering{mode: mode, interval: interval, cursor: make(map[int32]pagetable.VPN)}
}

// Name implements machine.Policy.
func (at *AutoTiering) Name() string { return at.mode.String() }

// Attach starts the PTE-poisoning scanner.
func (at *AutoTiering) Attach(m *machine.Machine) {
	at.Base.Attach(m)
	at.lastHint = mem.NewSide[sim.Time](m.Mem)
	at.StartDaemon("at-scan", at.interval, at.scan)
}

// scan poisons the next slice of every address space and, for OPM, ages
// history bits and demotes cold DRAM pages.
func (at *AutoTiering) scan(d *sim.Daemon) {
	m := at.M
	now := m.Clock.Now()
	var demoteCands []*mem.Page
	for _, as := range m.Spaces() {
		id := as.ID
		budget := int(float64(as.Mapped()) * atPoisonFrac)
		if budget == 0 && as.Mapped() > 0 {
			budget = 1
		}
		start := at.cursor[id]
		poisoned := 0
		var last pagetable.VPN
		walk := func(lo, hi pagetable.VPN) {
			as.Walk(lo, hi, func(vpn pagetable.VPN, pg *mem.Page) {
				if poisoned >= budget {
					return
				}
				last = vpn
				if pg.Flags.Has(mem.FlagUnevictable) {
					return
				}
				// OPM ages the page's history each time the scanner
				// passes it: shift in a zero; a hint fault sets bit 0.
				if at.mode == OPM {
					pg.Hist = (pg.Hist << 1) & (1<<atHistBits - 1)
					if pg.Hist == 0 && m.Mem.Tier(pg) == m.Mem.FastestTier() &&
						now-at.lastHint.Value(pg) > sim.Time(2*d.Interval) {
						demoteCands = append(demoteCands, pg)
					}
				}
				pagetable.Poison(pg)
				poisoned++
				m.ChargeTax(m.Mem.Lat.PTEPoison)
			})
		}
		walk(start, pagetable.MaxVPN+1)
		if poisoned < budget {
			walk(0, start) // wrap around
		}
		at.cursor[id] = last + 1
		m.Mem.Counters.PagesScanned += int64(poisoned)
	}

	if at.mode == OPM {
		at.demoteCold(demoteCands)
	}
}

// demoteCold moves history-cold fastest-tier pages one tier down, keeping
// promotion headroom (OPM's progressive demotion).
func (at *AutoTiering) demoteCold(cands []*mem.Page) {
	m := at.M
	fastest := m.Mem.FastestTier()
	budget := atDemoteBatch
	for _, id := range m.Mem.TierNodes(fastest) {
		// Only demote while the node actually needs headroom.
		n := m.Mem.Nodes[id]
		target := 4 * n.WM.High
		for _, pg := range cands {
			if budget == 0 || n.FreeFrames() >= target {
				break
			}
			if pg.Node != id || !pg.OnList() {
				continue
			}
			dst := m.Mem.PickNodeBelow(fastest)
			if dst == mem.NoNode {
				return
			}
			m.Vecs[pg.Node].Isolate(pg)
			if m.MigrateIsolated(pg, dst) {
				at.Demotions++
				budget--
			} else {
				m.Vecs[pg.Node].Putback(pg)
			}
		}
	}
}

// HintFault handles a software fault on a poisoned PTE: record recency and
// promote a lower-tier page on its first fault (NUMA-balancing-style
// migrate-on-fault: a page touched while sampled is assumed misplaced). The
// migration runs synchronously in fault context, so its full cost hits the
// application; that cost, plus the blind exchange victims under CPM, is
// what sinks these baselines (§V-C).
func (at *AutoTiering) HintFault(pg *mem.Page, write bool) {
	m := at.M
	if at.mode == OPM {
		*at.lastHint.Put(pg) = m.Clock.Now()
	}
	pg.Hist |= 1

	src := m.Mem.Tier(pg)
	up, ok := m.Mem.Above(src)
	if !ok {
		return
	}
	dst := pickVictimNode(m, up)
	if dst == mem.NoNode {
		switch at.mode {
		case CPM:
			// Conservative exchange: demote an upper-tier page chosen
			// without reference information — the oldest-born page of the
			// destination tier (its lists never age under fault-based
			// tracking). Under a skewed workload this regularly evicts hot
			// pages, which is the placement fragility §V-C.1 observes.
			if !at.exchangeVictim(up) {
				return
			}
		case OPM:
			// OPM relies on its proactive demotion for headroom; if none
			// exists this interval, skip.
			return
		}
		dst = pickVictimNode(m, up)
		if dst == mem.NoNode {
			return
		}
	}
	if !pg.OnList() {
		return
	}
	m.Vecs[pg.Node].Isolate(pg)
	if m.MigrateIsolated(pg, dst) {
		at.Promotions++
		// Synchronous migration in the fault path: the copy is not
		// daemon work, it blocks the faulting thread.
		m.Compute(m.Mem.Lat.PageCopy[src][up])
	} else {
		m.Vecs[pg.Node].Putback(pg)
	}
}

// exchangeVictim demotes one tier-t page picked blind (oldest birth) one
// tier down to make room, charging the faulting thread. Returns false when
// no victim exists.
func (at *AutoTiering) exchangeVictim(t mem.Tier) bool {
	m := at.M
	down, ok := m.Mem.Below(t)
	if !ok {
		return false
	}
	for _, id := range m.Mem.TierNodes(t) {
		vec := m.Vecs[id]
		// The inactive list is birth-ordered FIFO under AutoTiering (no
		// reference-bit aging), so its tail is simply the oldest page.
		for _, k := range []lru.Kind{lru.InactiveAnon, lru.InactiveFile} {
			l := vec.List(k)
			victim := l.Back()
			if victim == nil {
				continue
			}
			dst := m.Mem.PickNode(down)
			if dst == mem.NoNode {
				return false
			}
			vec.Isolate(victim)
			if m.MigrateIsolated(victim, dst) {
				at.Exchanges++
				m.Compute(m.Mem.Lat.PageCopy[t][down])
				return true
			}
			vec.Putback(victim)
		}
	}
	return false
}
