package policy

import (
	"testing"

	"multiclock/internal/machine"
	"multiclock/internal/mem"
	"multiclock/internal/pagetable"
	"multiclock/internal/sim"
)

func newMachine(dram, pm int, p machine.Policy) *machine.Machine {
	cfg := machine.DefaultConfig()
	cfg.Mem.DRAMNodes = []int{dram}
	cfg.Mem.PMNodes = []int{pm}
	cfg.OpCost = 0
	cfg.CPUCachePages = 0
	return machine.New(cfg, p)
}

// fillOver allocates n pages and returns the VMA; sized above DRAM it
// leaves the overflow (or demoted cold pages) in PM.
func fillOver(m *machine.Machine, as *pagetable.AddressSpace, n int) *pagetable.VMA {
	v := as.Mmap(n, false, "data")
	for i := 0; i < n; i++ {
		m.Access(as, v.Start+pagetable.VPN(i), false)
	}
	return v
}

// checkDaemons attaches p to a small machine and checks that it reports
// name and that every daemon it started wakes on the interval it was given.
func checkDaemons(t *testing.T, p interface {
	machine.Policy
	Daemons() []*sim.Daemon
}, name string, interval sim.Duration) {
	t.Helper()
	newMachine(64, 256, p)
	if p.Name() != name {
		t.Fatalf("name %q, want %q", p.Name(), name)
	}
	if len(p.Daemons()) == 0 {
		t.Fatal("no daemon started")
	}
	for _, d := range p.Daemons() {
		if d.Interval != interval {
			t.Fatalf("daemon %s wakes every %v, want %v", d.Name, d.Interval, interval)
		}
	}
}

func pmVPNs(m *machine.Machine, as *pagetable.AddressSpace, v *pagetable.VMA, max int) []pagetable.VPN {
	var out []pagetable.VPN
	as.WalkVMA(v, func(vpn pagetable.VPN, pg *mem.Page) {
		if len(out) < max && m.Mem.Tier(pg) == mem.TierPM {
			out = append(out, vpn)
		}
	})
	return out
}

// --- Static ---

func TestStaticNeverMigrates(t *testing.T) {
	m := newMachine(64, 512, NewStatic())
	as := m.NewSpace()
	v := fillOver(m, as, 200)
	hot := pmVPNs(m, as, v, 16)
	if len(hot) == 0 {
		t.Fatal("setup: no PM pages under static tiering")
	}
	for round := 0; round < 10; round++ {
		for _, vpn := range hot {
			m.Access(as, vpn, false)
		}
		m.Compute(1100 * sim.Millisecond)
	}
	if m.Mem.Counters.Promotions != 0 || m.Mem.Counters.Demotions != 0 {
		t.Fatalf("static tiering migrated pages: %+v", m.Mem.Counters)
	}
	for _, vpn := range hot {
		if m.Mem.Tier(as.Lookup(vpn)) != mem.TierPM {
			t.Fatal("static page changed tier")
		}
	}
	if NewStatic().Name() != "static" {
		t.Fatal("name")
	}
}

func TestStaticBornInDRAMFirst(t *testing.T) {
	m := newMachine(64, 64, NewStatic())
	as := m.NewSpace()
	v := as.Mmap(1, false, "x")
	pg := m.Access(as, v.Start, false)
	if m.Mem.Tier(pg) != mem.TierDRAM {
		t.Fatal("first page not in DRAM")
	}
}

// --- Nimble ---

func TestNimbleDefaults(t *testing.T) {
	checkDaemons(t, NewNimble(250*sim.Millisecond, nil), "nimble", 250*sim.Millisecond)
	checkDaemons(t, NewNimble(sim.Second, NewBandwidthGate()), "nimble+bandwidth-gate(5%/1.000s)", sim.Second)
}

func TestNimblePromotesOnSingleRecency(t *testing.T) {
	nb := NewNimble(1*sim.Second, nil)
	m := newMachine(128, 1024, nb)
	as := m.NewSpace()
	v := fillOver(m, as, 400)
	hot := pmVPNs(m, as, v, 16)
	if len(hot) != 16 {
		t.Fatalf("setup: %d PM pages", len(hot))
	}
	for round := 0; round < 6; round++ {
		for _, vpn := range hot {
			m.Access(as, vpn, false)
		}
		m.Compute(1100 * sim.Millisecond)
	}
	if nb.Promotions == 0 {
		t.Fatal("nimble promoted nothing")
	}
	promoted := 0
	for _, vpn := range hot {
		if pg := as.Lookup(vpn); pg != nil && m.Mem.Tier(pg) == mem.TierDRAM {
			promoted++
		}
	}
	if promoted < 12 {
		t.Fatalf("only %d/16 hot pages promoted", promoted)
	}
}

// TestNimbleLessSelectiveThanMultiClock: under a workload with one-touch
// noise, Nimble promotes more pages than a frequency-based selector should
// — the Fig. 8 behaviour. Here: pages touched a single time right before a
// scan still get promoted by Nimble.
func TestNimblePromotesOneTouchPages(t *testing.T) {
	nb := NewNimble(1*sim.Second, nil)
	m := newMachine(256, 1024, nb)
	as := m.NewSpace()
	v := fillOver(m, as, 600)
	noise := pmVPNs(m, as, v, 64)
	// Two warm-up rounds activate the pages (recency ladder), then a
	// single touch qualifies them.
	for round := 0; round < 4; round++ {
		for _, vpn := range noise {
			m.Access(as, vpn, false)
		}
		m.Compute(1100 * sim.Millisecond)
	}
	if nb.Promotions == 0 {
		t.Fatal("expected one-touch promotions from recency-only selection")
	}
}

func TestNimbleStop(t *testing.T) {
	nb := NewNimble(1*sim.Second, nil)
	m := newMachine(64, 64, nb)
	nb.Stop()
	m.Compute(5 * sim.Second)
	if m.Mem.Counters.PagesScanned != 0 {
		t.Fatal("stopped nimble scanned")
	}
}

// TestStockLadderParksNothingOnPromoteLists drives a file mapping hot through
// supervised accesses (read(2)-style, so MarkAccessed rather than the
// hardware bit) under each baseline on the stock CLOCK ladder. No page may
// end up on a promote list: nothing in these policies reads one.
func TestStockLadderParksNothingOnPromoteLists(t *testing.T) {
	const interval = 10 * sim.Millisecond
	for _, p := range []machine.Policy{
		NewNimble(interval, nil),
		NewNimble(interval, NewBandwidthGate()),
		NewS3FIFO(interval),
	} {
		m := newMachine(128, 1024, p)
		as := m.NewSpace()
		fillOver(m, as, 400)
		file := as.Mmap(32, true, "file")
		for i := 0; i < 32; i++ {
			m.Access(as, file.Start+pagetable.VPN(i), false)
		}
		if pm := pmVPNs(m, as, file, 32); len(pm) != 32 {
			t.Fatalf("%s setup: %d of 32 file pages on PM", p.Name(), len(pm))
		}
		for ms := 1; ms <= 200; ms++ {
			for i := 0; i < 32; i++ {
				m.SupervisedAccess(as, file.Start+pagetable.VPN(i), false)
				m.SupervisedAccess(as, file.Start+pagetable.VPN(i), false)
			}
			m.Compute(sim.Millisecond)
			parked := 0
			as.WalkVMA(file, func(_ pagetable.VPN, pg *mem.Page) {
				if pg.Flags.Has(mem.FlagPromote) {
					parked++
				}
			})
			if parked > 0 {
				t.Fatalf("%s: %d of 32 pages parked on a promote list after %d ms", p.Name(), parked, ms)
			}
		}
	}
}

// --- AutoTiering ---

func TestATDefaults(t *testing.T) {
	checkDaemons(t, NewAutoTiering(CPM, 250*sim.Millisecond), "at-cpm", 250*sim.Millisecond)
	checkDaemons(t, NewAutoTiering(OPM, sim.Second), "at-opm", sim.Second)
}

func TestATPoisonsPages(t *testing.T) {
	at := NewAutoTiering(CPM, 1*sim.Second)
	m := newMachine(256, 256, at)
	as := m.NewSpace()
	v := fillOver(m, as, 128)
	m.Compute(1100 * sim.Millisecond) // one scanner pass
	poisoned := 0
	as.WalkVMA(v, func(vpn pagetable.VPN, pg *mem.Page) {
		if pg.Flags.Has(mem.FlagPoisoned) {
			poisoned++
		}
	})
	want := int(atPoisonFrac * 128)
	if poisoned < want-2 || poisoned > want+2 {
		t.Fatalf("poisoned %d pages, want ≈%d", poisoned, want)
	}
}

func TestATHintFaultsCostTheApplication(t *testing.T) {
	at := NewAutoTiering(CPM, 1*sim.Second)
	cfg := machine.DefaultConfig()
	cfg.Mem.DRAMNodes = []int{256}
	cfg.Mem.PMNodes = []int{256}
	cfg.OpCost = 0
	cfg.CPUCachePages = 0
	m := machine.New(cfg, at)
	as := m.NewSpace()
	v := fillOver(m, as, 128)
	m.Compute(1100 * sim.Millisecond)
	// Touch everything: poisoned pages take hint faults.
	for i := 0; i < 128; i++ {
		m.Access(as, v.Start+pagetable.VPN(i), false)
	}
	if m.Mem.Counters.HintFaults == 0 {
		t.Fatal("no hint faults after a poisoning pass")
	}
}

// atLap is the number of scanner passes in which the poisoning cursor
// visits every mapped page once.
const atLap = int(1 / atPoisonFrac)

func TestATCPMPromotesOnRepeatedFaults(t *testing.T) {
	at := NewAutoTiering(CPM, 1*sim.Second)
	m := newMachine(128, 1024, at)
	as := m.NewSpace()
	v := fillOver(m, as, 400)
	hot := pmVPNs(m, as, v, 8)
	for round := 0; round < 6*atLap; round++ {
		m.Compute(1100 * sim.Millisecond)
		for _, vpn := range hot {
			m.Access(as, vpn, false)
		}
	}
	if at.Promotions == 0 {
		t.Fatal("AT-CPM promoted nothing despite repeated faults within window")
	}
}

func TestATCPMExchangesBlindVictims(t *testing.T) {
	at := NewAutoTiering(CPM, 1*sim.Second)
	m := newMachine(64, 1024, at)
	as := m.NewSpace()
	v := fillOver(m, as, 300)
	hot := pmVPNs(m, as, v, 32)
	for round := 0; round < 8*atLap; round++ {
		m.Compute(1100 * sim.Millisecond)
		for _, vpn := range hot {
			m.Access(as, vpn, false)
		}
	}
	if at.Exchanges == 0 {
		t.Fatal("CPM never exchanged despite full DRAM")
	}
}

func TestATOPMDemotesColdPages(t *testing.T) {
	at := NewAutoTiering(OPM, 1*sim.Second)
	m := newMachine(64, 1024, at)
	as := m.NewSpace()
	v := fillOver(m, as, 300)
	hot := pmVPNs(m, as, v, 16)
	// DRAM pages go cold (never faulted again); history empties; OPM
	// demotes them while hot PM pages fault repeatedly.
	for round := 0; round < 10*atLap; round++ {
		m.Compute(1100 * sim.Millisecond)
		for _, vpn := range hot {
			m.Access(as, vpn, false)
		}
	}
	if at.Demotions == 0 {
		t.Fatal("OPM never demoted history-cold pages")
	}
	if at.Promotions == 0 {
		t.Fatal("OPM never promoted")
	}
}

func TestATStop(t *testing.T) {
	at := NewAutoTiering(CPM, 1*sim.Second)
	m := newMachine(64, 64, at)
	as := m.NewSpace()
	fillOver(m, as, 32)
	at.Stop()
	scanned := m.Mem.Counters.PagesScanned
	m.Compute(5 * sim.Second)
	if m.Mem.Counters.PagesScanned != scanned {
		t.Fatal("stopped scanner kept poisoning")
	}
}

// --- Memory-mode ---

func TestMemoryModeBornInPM(t *testing.T) {
	mm := NewMemoryMode()
	m := newMachine(64, 512, mm)
	as := m.NewSpace()
	v := as.Mmap(32, false, "x")
	for i := 0; i < 32; i++ {
		pg := m.Access(as, v.Start+pagetable.VPN(i), false)
		if m.Mem.Tier(pg) != mem.TierPM {
			t.Fatal("memory-mode page born outside PM")
		}
	}
	if mm.Name() != "memory-mode" {
		t.Fatal("name")
	}
}

func TestMemoryModeCacheHitsAreDRAMSpeed(t *testing.T) {
	mm := NewMemoryMode()
	m := newMachine(64, 512, mm)
	as := m.NewSpace()
	v := as.Mmap(1, false, "x")
	m.Access(as, v.Start, false) // miss, fills
	before := m.Clock.Now()
	m.Access(as, v.Start, false) // hit
	got := sim.Duration(m.Clock.Now() - before)
	if got != m.Mem.Lat.Read[mem.TierDRAM] {
		t.Fatalf("cache hit cost %v, want DRAM read", got)
	}
	if mm.Hits != 1 || mm.Misses != 1 {
		t.Fatalf("hits=%d misses=%d", mm.Hits, mm.Misses)
	}
}

func TestMemoryModeMissCostsMoreThanPM(t *testing.T) {
	mm := NewMemoryMode()
	m := newMachine(64, 512, mm)
	as := m.NewSpace()
	v := as.Mmap(1, false, "x")
	pg := m.Access(as, v.Start, false)
	before := m.Clock.Now()
	// Evict by touching a conflicting page? Simpler: invalidate.
	mm.PageFreed(pg)
	m.Access(as, v.Start, false)
	got := sim.Duration(m.Clock.Now() - before)
	if got <= m.Mem.Lat.Read[mem.TierPM] {
		t.Fatalf("miss cost %v, should exceed raw PM read (fill traffic)", got)
	}
}

func TestMemoryModeThrashesWhenHotSetExceedsDRAM(t *testing.T) {
	mm := NewMemoryMode()
	m := newMachine(64, 1024, mm)
	as := m.NewSpace()
	v := as.Mmap(256, false, "big") // hot set 4× the cache
	for round := 0; round < 4; round++ {
		for i := 0; i < 256; i++ {
			m.Access(as, v.Start+pagetable.VPN(i), false)
		}
	}
	if ratio := mm.HitRatio(); ratio > 0.5 {
		t.Fatalf("hit ratio %v with 4× oversubscribed cache", ratio)
	}
}

func TestMemoryModeSmallHotSetHitsHigh(t *testing.T) {
	mm := NewMemoryMode()
	m := newMachine(256, 1024, mm)
	as := m.NewSpace()
	v := as.Mmap(32, false, "hot")
	for round := 0; round < 10; round++ {
		for i := 0; i < 32; i++ {
			m.Access(as, v.Start+pagetable.VPN(i), false)
		}
	}
	if ratio := mm.HitRatio(); ratio < 0.8 {
		t.Fatalf("hit ratio %v for DRAM-fitting hot set", ratio)
	}
}

func TestMemoryModeWritebackOnDirtyEviction(t *testing.T) {
	mm := NewMemoryMode()
	m := newMachine(1, 64, mm) // one-set cache: every distinct page conflicts
	as := m.NewSpace()
	v := as.Mmap(2, false, "x")
	m.Access(as, v.Start, true)    // dirty fill
	m.Access(as, v.Start+1, false) // conflict evicts dirty page
	if mm.Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", mm.Writebacks)
	}
}

func TestMemoryModeNeverMigrates(t *testing.T) {
	mm := NewMemoryMode()
	m := newMachine(64, 512, mm)
	as := m.NewSpace()
	fillOver(m, as, 200)
	m.Compute(10 * sim.Second)
	if m.Mem.Counters.Promotions+m.Mem.Counters.Demotions != 0 {
		t.Fatal("memory-mode migrated pages")
	}
}

func TestMemoryModeHitRatioEmpty(t *testing.T) {
	if NewMemoryMode().HitRatio() != 0 {
		t.Fatal("empty hit ratio")
	}
}

func TestATModeString(t *testing.T) {
	if CPM.String() != "at-cpm" || OPM.String() != "at-opm" {
		t.Fatal("mode names")
	}
}
