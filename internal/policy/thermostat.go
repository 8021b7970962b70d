package policy

import (
	"sort"

	"multiclock/internal/machine"
	"multiclock/internal/mem"
	"multiclock/internal/pagetable"
	"multiclock/internal/sim"
)

// Thermostat reimplements the page-selection idea of Thermostat (Agarwal &
// Wenisch, ASPLOS'17), which the paper lists in Table I but could not
// evaluate ("Not Open Source", §II-D): huge-page-granularity cold-data
// detection via software sampling. Regions of 512 base pages are sampled
// each period by poisoning a few of their PTEs; the hint-fault rate
// estimates the region's access rate; regions colder than the threshold
// are demoted wholesale to PM, and demoted regions that turn out hot
// (their fault rate rebounds) are promoted back — misclassification
// correction.
//
// The granularity trade-off this exposes is exactly why the paper manages
// base pages: one hot base page keeps 2 MiB resident, and one cold
// classification demotes hot neighbours with it.
type Thermostat struct {
	machine.Base
	interval sim.Duration
	rng      *sim.RNG

	regions map[regionKey]*regionStats

	Demotions  int64
	Promotions int64
}

// Thermostat's published operating point scaled to the simulator.
const (
	// thermoRegionPages is the classification granularity (512 = 2 MiB huge
	// pages).
	thermoRegionPages = 512
	// thermoSampleFrac is the fraction of each space's resident pages
	// poisoned per period.
	thermoSampleFrac = 0.05
	// thermoColdThreshold: regions with at most this many sampled faults per
	// period are classified cold.
	thermoColdThreshold = 0
	// thermoDemoteBatch caps region demotions per period.
	thermoDemoteBatch = 8
	// thermoSeed seeds the sampling stream. It is a constant, so -seed does
	// not reach it.
	thermoSeed = 0x7e45
)

type regionKey struct {
	space int32
	base  pagetable.VPN
}

type regionStats struct {
	faults  int // hint faults this period
	sampled int
	demoted bool
}

// NewThermostat returns the baseline policy, sampling every interval.
func NewThermostat(interval sim.Duration) *Thermostat {
	return &Thermostat{
		interval: interval,
		rng:      sim.NewRNG(thermoSeed),
		regions:  make(map[regionKey]*regionStats),
	}
}

// Name implements machine.Policy.
func (th *Thermostat) Name() string { return "thermostat" }

// Attach starts the sampling daemon.
func (th *Thermostat) Attach(m *machine.Machine) {
	th.Base.Attach(m)
	th.StartDaemon("thermostat", th.interval, func(*sim.Daemon) { th.period() })
}

// regionOf returns the key for a page's region.
func (th *Thermostat) regionOf(pg *mem.Page) regionKey {
	vpn := pagetable.VPNOf(pg.VA)
	return regionKey{
		space: pg.Space,
		base:  vpn - vpn%thermoRegionPages,
	}
}

// HintFault counts sampled accesses per region.
func (th *Thermostat) HintFault(pg *mem.Page, write bool) {
	st, ok := th.regions[th.regionOf(pg)]
	if !ok {
		return
	}
	st.faults++
}

// sortedRegions returns the region keys in (space, base) order. Regions
// compete for the thermoDemoteBatch cap and for free frames, so the
// classification loop — like the snapshot encoder — must not see them in
// Go's randomized map order.
func (th *Thermostat) sortedRegions() []regionKey {
	keys := make([]regionKey, 0, len(th.regions))
	for key := range th.regions {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].space != keys[j].space {
			return keys[i].space < keys[j].space
		}
		return keys[i].base < keys[j].base
	})
	return keys
}

// period is one Thermostat cycle: classify last period's samples, migrate,
// then poison the next sample set.
func (th *Thermostat) period() {
	m := th.M

	// Classify and migrate based on the period that just ended. Thermostat
	// is a two-state classifier: hot regions live in the fastest tier, cold
	// regions one tier below it.
	fastest := m.Mem.FastestTier()
	coldTier, _ := m.Mem.Below(fastest)
	demoted := 0
	for _, key := range th.sortedRegions() {
		st := th.regions[key]
		if st.sampled == 0 {
			continue
		}
		switch {
		case !st.demoted && st.faults <= thermoColdThreshold && demoted < thermoDemoteBatch:
			// Cold region: demote every resident page.
			if th.migrateRegion(key, coldTier) > 0 {
				st.demoted = true
				th.Demotions++
				demoted++
			}
		case st.demoted && st.faults > thermoColdThreshold+1:
			// Misclassified: the "cold" region is being accessed from the
			// slow tier.
			if th.migrateRegion(key, fastest) > 0 {
				st.demoted = false
				th.Promotions++
			}
		}
		st.faults = 0
		st.sampled = 0
	}

	// Poison the next sample set: a fraction of each space's resident
	// pages, region-tagged. frac is a float64 variable so that frac*4
	// rounds at run time like every other product here, not exactly at
	// compile time.
	frac := float64(thermoSampleFrac)
	for _, as := range m.Spaces() {
		budget := int(float64(as.Mapped()) * frac)
		if budget == 0 && as.Mapped() > 0 {
			budget = 1
		}
		poisoned := 0
		as.Walk(0, pagetable.MaxVPN+1, func(vpn pagetable.VPN, pg *mem.Page) {
			if poisoned >= budget || pg.Flags.Has(mem.FlagUnevictable) {
				return
			}
			// Sample pseudo-randomly so coverage rotates.
			if th.rng.Float64() > frac*4 {
				return
			}
			key := th.regionOf(pg)
			st, ok := th.regions[key]
			if !ok {
				st = &regionStats{}
				th.regions[key] = st
			}
			pagetable.Poison(pg)
			st.sampled++
			poisoned++
			m.ChargeTax(m.Mem.Lat.PTEPoison)
		})
		m.Mem.Counters.PagesScanned += int64(poisoned)
	}
}

// migrateRegion moves every resident page of the region to tier t,
// returning how many pages moved.
func (th *Thermostat) migrateRegion(key regionKey, t mem.Tier) int {
	m := th.M
	if int(key.space) >= len(m.Spaces()) {
		return 0
	}
	as := m.Space(key.space)
	moved := 0
	as.Walk(key.base, key.base+thermoRegionPages, func(vpn pagetable.VPN, pg *mem.Page) {
		if m.Mem.Tier(pg) == t || !pg.OnList() {
			return
		}
		dst := m.Mem.PickNode(t)
		if dst == mem.NoNode {
			return
		}
		if t == m.Mem.FastestTier() && m.Mem.Nodes[dst].UnderMin() {
			return
		}
		if m.MigratePage(pg, dst) {
			moved++
		}
	})
	return moved
}
