package policy

import (
	"testing"

	"multiclock/internal/mem"
	"multiclock/internal/pagetable"
	"multiclock/internal/sim"
)

func TestAMPNamesAndParsing(t *testing.T) {
	cases := map[string]AMPSelector{"amp-lru": AMPLRU, "amp-lfu": AMPLFU, "amp-random": AMPRandom}
	for name, sel := range cases {
		if sel.String() != name {
			t.Fatalf("selector %v stringifies to %q", sel, sel.String())
		}
		checkDaemons(t, NewAMP(sel, 250*sim.Millisecond), name, 250*sim.Millisecond)
	}
}

func TestAMPProfilesEveryAccess(t *testing.T) {
	a := NewAMP(AMPLFU, 1*sim.Second)
	m := newMachine(256, 1024, a)
	as := m.NewSpace()
	v := as.Mmap(1, false, "x")
	pg := m.Access(as, v.Start, false)
	first := a.prof.Value(pg).lastUse
	m.Access(as, v.Start, false)
	m.Access(as, v.Start, true)
	if got := a.prof.Value(pg).freq; got != 3 {
		t.Fatalf("freq = %d, want 3 (exact profiling)", got)
	}
	if a.prof.Value(pg).lastUse <= first {
		t.Fatal("LastUse not advancing with accesses")
	}
}

// TestAMPLFUPromotesHotPages: exact frequency selection must move a hot PM
// set to DRAM, exchanging against cold DRAM pages.
func TestAMPLFUPromotesHotPages(t *testing.T) {
	a := NewAMP(AMPLFU, 10*sim.Millisecond)
	m := newMachine(128, 1024, a)
	as := m.NewSpace()
	v := fillOver(m, as, 400)
	hot := pmVPNs(m, as, v, 16)
	if len(hot) != 16 {
		t.Fatalf("setup: %d PM pages", len(hot))
	}
	for round := 0; round < 12; round++ {
		for rep := 0; rep < 4; rep++ {
			for _, vpn := range hot {
				m.Access(as, vpn, false)
			}
		}
		m.Compute(11 * sim.Millisecond)
	}
	promoted := 0
	for _, vpn := range hot {
		if pg := as.Lookup(vpn); pg != nil && m.Mem.Tier(pg) == mem.TierDRAM {
			promoted++
		}
	}
	if promoted < 12 {
		t.Fatalf("LFU promoted %d/16 hot pages", promoted)
	}
	if a.Promotions == 0 {
		t.Fatal("promotion counter")
	}
}

// TestAMPLFUDoesNotDisplaceHotterPages: the exchange guard must refuse to
// demote a DRAM page hotter than the arriving one.
func TestAMPExchangeGuard(t *testing.T) {
	a := NewAMP(AMPLFU, 10*sim.Millisecond)
	m := newMachine(128, 1024, a)
	as := m.NewSpace()
	v := fillOver(m, as, 400)
	// Make every DRAM page very hot; PM pages mildly warm.
	var dramHot, pmWarm []pagetable.VPN
	as.WalkVMA(v, func(vpn pagetable.VPN, pg *mem.Page) {
		if m.Mem.Tier(pg) == mem.TierDRAM {
			dramHot = append(dramHot, vpn)
		} else if len(pmWarm) < 32 {
			pmWarm = append(pmWarm, vpn)
		}
	})
	for round := 0; round < 8; round++ {
		for _, vpn := range dramHot {
			m.Access(as, vpn, false)
			m.Access(as, vpn, false)
		}
		for _, vpn := range pmWarm {
			m.Access(as, vpn, false)
		}
		m.Compute(11 * sim.Millisecond)
	}
	// Warm PM pages must not displace hot DRAM pages.
	displaced := 0
	for _, vpn := range dramHot {
		if pg := as.Lookup(vpn); pg != nil && m.Mem.Tier(pg) == mem.TierPM {
			displaced++
		}
	}
	if displaced > len(dramHot)/10 {
		t.Fatalf("%d/%d hot DRAM pages displaced by warm PM pages", displaced, len(dramHot))
	}
}

func TestAMPRandomStillMigrates(t *testing.T) {
	a := NewAMP(AMPRandom, 10*sim.Millisecond)
	m := newMachine(128, 1024, a)
	as := m.NewSpace()
	fillOver(m, as, 400)
	m.Compute(100 * sim.Millisecond)
	if a.Promotions == 0 {
		t.Fatal("random selector never promoted")
	}
}

func TestAMPStop(t *testing.T) {
	a := NewAMP(AMPLRU, 1*sim.Second)
	m := newMachine(64, 256, a)
	as := m.NewSpace()
	fillOver(m, as, 100)
	a.Stop()
	scanned := m.Mem.Counters.PagesScanned
	m.Compute(10 * sim.Second)
	if m.Mem.Counters.PagesScanned != scanned {
		t.Fatal("stopped AMP kept scanning")
	}
}

func TestAMPLFUDecay(t *testing.T) {
	a := NewAMP(AMPLFU, 10*sim.Millisecond)
	m := newMachine(256, 1024, a)
	as := m.NewSpace()
	v := as.Mmap(1, false, "x")
	pg := m.Access(as, v.Start, false)
	for i := 0; i < 99; i++ {
		m.Access(as, v.Start, false)
	}
	if got := a.prof.Value(pg).freq; got != 100 {
		t.Fatalf("freq = %d", got)
	}
	m.Compute(11 * sim.Millisecond) // one decay pass
	if got := a.prof.Value(pg).freq; got != 50 {
		t.Fatalf("freq after decay = %d, want 50", got)
	}
}
