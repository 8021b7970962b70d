package policy

import (
	"testing"

	"multiclock/internal/machine"
	"multiclock/internal/mem"
	"multiclock/internal/pagetable"
	"multiclock/internal/sim"
)

// --- Nomad ---

func TestNomadDefaults(t *testing.T) {
	checkDaemons(t, NewNomad(250*sim.Millisecond), "nomad", 250*sim.Millisecond)
}

// nomadHotReads drives read-only heat at 16 PM pages for `rounds` daemon
// periods and returns the hot VPN set.
func nomadHotReads(t *testing.T, m *machine.Machine, rounds int) (*pagetable.AddressSpace, []pagetable.VPN) {
	t.Helper()
	as := m.NewSpace()
	v := fillOver(m, as, 400)
	hot := pmVPNs(m, as, v, 16)
	if len(hot) != 16 {
		t.Fatalf("setup: %d PM pages", len(hot))
	}
	for round := 0; round < rounds; round++ {
		for _, vpn := range hot {
			m.Access(as, vpn, false)
		}
		m.Compute(1100 * sim.Millisecond)
	}
	return as, hot
}

func TestNomadShadowPromotionIsTwoPhase(t *testing.T) {
	nd := NewNomad(1 * sim.Second)
	m := newMachine(128, 1024, nd)
	as, hot := nomadHotReads(t, m, 8)

	if nd.TxBegins == 0 || nd.TxCommits == 0 {
		t.Fatalf("tx begins=%d commits=%d; two-phase protocol never ran", nd.TxBegins, nd.TxCommits)
	}
	if nd.TxBegins < nd.TxCommits {
		t.Fatalf("commits (%d) exceed begins (%d)", nd.TxCommits, nd.TxBegins)
	}
	if m.Mem.Counters.ShadowPromotes == 0 {
		t.Fatal("no shadow promotions recorded")
	}
	shadowed := 0
	for _, vpn := range hot {
		if pg := as.Lookup(vpn); pg != nil && m.Mem.Tier(pg) == mem.TierDRAM && pg.HasShadow() {
			shadowed++
		}
	}
	if shadowed == 0 {
		t.Fatal("no promoted page retains its PM shadow")
	}
	if m.Mem.ShadowFrames() == 0 {
		t.Fatal("system shadow accounting empty despite shadowed pages")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNomadWriteAbortsInflightTransaction(t *testing.T) {
	nd := NewNomad(1 * sim.Second)
	m := newMachine(128, 1024, nd)
	as := m.NewSpace()
	v := fillOver(m, as, 400)
	hot := pmVPNs(m, as, v, 16)
	if len(hot) != 16 {
		t.Fatalf("setup: %d PM pages", len(hot))
	}
	// Write-only heat: every page dirtied between begin and commit aborts
	// its transaction, so promotions happen — by the exclusive fallback —
	// but never commit a shadow.
	for round := 0; round < 8; round++ {
		for _, vpn := range hot {
			m.Access(as, vpn, true)
		}
		m.Compute(1100 * sim.Millisecond)
	}
	if nd.TxAborts == 0 {
		t.Fatal("write-only heat aborted no transactions")
	}
	if m.Mem.Counters.ShadowPromotes != 0 {
		t.Fatalf("%d shadow promotions committed despite every copy racing a write", m.Mem.Counters.ShadowPromotes)
	}
	if m.Mem.Counters.Promotions == 0 {
		t.Fatal("aborted transactions never fell back to exclusive migration")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNomadWriteInvalidatesShadow(t *testing.T) {
	nd := NewNomad(1 * sim.Second)
	m := newMachine(128, 1024, nd)
	as, hot := nomadHotReads(t, m, 8)
	if m.Mem.ShadowFrames() == 0 {
		t.Fatal("setup: no shadows committed")
	}
	for _, vpn := range hot {
		m.Access(as, vpn, true)
	}
	for _, vpn := range hot {
		if pg := as.Lookup(vpn); pg != nil && pg.HasShadow() {
			t.Fatal("written page still holds a shadow")
		}
	}
	if m.Mem.Counters.ShadowDrops == 0 {
		t.Fatal("no shadow drops recorded")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNomadCleanShadowedPagesDemoteForFree(t *testing.T) {
	nd := NewNomad(1 * sim.Second)
	m := newMachine(64, 1024, nd)
	as, _ := nomadHotReads(t, m, 8)
	if m.Mem.ShadowFrames() == 0 {
		t.Fatal("setup: no shadows committed")
	}
	// The shadowed pages go cold while fresh allocations (born in DRAM)
	// pressure the tier: demotion should find clean shadowed victims and
	// remap them for free.
	w := as.Mmap(256, false, "pressure")
	for round := 0; round < 10; round++ {
		for i := 0; i < 256; i++ {
			m.Access(as, w.Start+pagetable.VPN(i), false)
		}
		m.Compute(1100 * sim.Millisecond)
	}
	if m.Mem.Counters.ShadowHits == 0 {
		t.Fatalf("no free demotions: shadow hits=0 (free-demotes=%d, demotions=%d)",
			nd.FreeDemotes, m.Mem.Counters.Demotions)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNomadStop(t *testing.T) {
	nd := NewNomad(1 * sim.Second)
	m := newMachine(64, 64, nd)
	nd.Stop()
	m.Compute(5 * sim.Second)
	if m.Mem.Counters.PagesScanned != 0 {
		t.Fatal("stopped nomad scanned")
	}
}

// --- BandwidthGate ---

func TestBandwidthGateBudget(t *testing.T) {
	g := machine.NewBandwidthGate()
	m := newMachine(64, 64, NewStatic())
	g.Attach(m)
	clean := &mem.Page{}
	dirty := &mem.Page{Flags: mem.FlagDirty}

	if !g.Admit(clean, 0) {
		t.Fatal("idle machine rejected a promotion")
	}
	// Spend past the soft budget (50 ms of a 1 s window): only dirty pages
	// pass.
	m.Mem.Counters.MigrationBusy = 75 * sim.Millisecond
	if g.Admit(clean, 0) {
		t.Fatal("clean page admitted over budget")
	}
	if !g.Admit(dirty, 0) {
		t.Fatal("dirty page rejected between budget and hard limit")
	}
	// Past the hard limit (100 ms) nothing passes.
	m.Mem.Counters.MigrationBusy = 125 * sim.Millisecond
	if g.Admit(dirty, 0) {
		t.Fatal("dirty page admitted past the hard limit")
	}
	if g.Rejects != 2 || m.Mem.Counters.AdmissionRejects != 2 {
		t.Fatalf("rejects=%d counter=%d, want 2", g.Rejects, m.Mem.Counters.AdmissionRejects)
	}
	// A new window resets the baseline: the busy time was spent in the
	// old window.
	if !g.Admit(clean, sim.Time(2*sim.Second)) {
		t.Fatal("fresh window still rejecting")
	}
}

func TestBandwidthGateDefaults(t *testing.T) {
	// The bake-off tables label the gated variants with this rendering.
	if got := machine.NewBandwidthGate().Name(); got != "bandwidth-gate(5%/1.000s)" {
		t.Fatalf("name %q", got)
	}
}

func TestGatedNimbleRejectsUnderPressure(t *testing.T) {
	// A copy engine that has already spent a whole window migrating (past
	// the hard limit) starves every promotion until the window turns over;
	// Nimble wakes ten times a window, so its candidates meet a spent gate.
	nb := NewNimble(100*sim.Millisecond, machine.NewBandwidthGate())
	m := newMachine(128, 1024, nb)
	as := m.NewSpace()
	v := fillOver(m, as, 400)
	hot := pmVPNs(m, as, v, 32)
	m.Mem.Counters.MigrationBusy += sim.Second // one whole window
	for round := 0; round < 6; round++ {
		for _, vpn := range hot {
			m.Access(as, vpn, false)
		}
		m.Compute(110 * sim.Millisecond)
	}
	if m.Mem.Counters.AdmissionRejects == 0 {
		t.Fatal("starved gate rejected nothing")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// --- S3-FIFO ---

func TestS3FIFODefaults(t *testing.T) {
	checkDaemons(t, NewS3FIFO(250*sim.Millisecond), "s3fifo", 250*sim.Millisecond)
}

func TestS3FIFOPromotesReusedPages(t *testing.T) {
	s := NewS3FIFO(1 * sim.Second)
	m := newMachine(128, 1024, s)
	as := m.NewSpace()
	v := fillOver(m, as, 400)
	hot := pmVPNs(m, as, v, 16)
	if len(hot) != 16 {
		t.Fatalf("setup: %d PM pages", len(hot))
	}
	for round := 0; round < 8; round++ {
		for _, vpn := range hot {
			m.Access(as, vpn, false)
		}
		m.Compute(1100 * sim.Millisecond)
	}
	if s.Promotions == 0 {
		t.Fatal("s3fifo promoted nothing")
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
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestS3FIFOColdPagesStayPut(t *testing.T) {
	// Pages touched only at birth never leave the small→ghost path and
	// are never promoted.
	s := NewS3FIFO(1 * sim.Second)
	m := newMachine(128, 1024, s)
	as := m.NewSpace()
	fillOver(m, as, 400)
	m.Compute(5 * sim.Second)
	if s.Promotions != 0 || m.Mem.Counters.Promotions != 0 {
		t.Fatalf("cold workload promoted %d pages", m.Mem.Counters.Promotions)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestS3FIFOGhostHitSkipsProbation(t *testing.T) {
	s := NewS3FIFO(1 * sim.Second)
	m := newMachine(64, 256, s)
	as := m.NewSpace()
	v := fillOver(m, as, 220)
	pm := pmVPNs(m, as, v, 220)
	if len(pm) < 100 {
		t.Fatalf("setup: %d PM pages", len(pm))
	}
	// One daemon period with no reuse: the small queue (10%% of 256
	// frames) overflows and quick-demotes the excess to ghost.
	m.Compute(1100 * sim.Millisecond)
	// Touch every PM page once: ghost members jump straight to main.
	for _, vpn := range pm {
		m.Access(as, vpn, false)
	}
	if s.GhostHits == 0 {
		t.Fatal("no ghost hits after re-touching quick-demoted pages")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestS3FIFOSurvivesUnmapOfQueuedPages(t *testing.T) {
	s := NewS3FIFO(1 * sim.Second)
	m := newMachine(64, 512, s)
	as := m.NewSpace()
	v := fillOver(m, as, 300)
	// Unmap everything while queue entries still reference the pages:
	// the stale entries must resolve lazily without touching dead pages.
	for i := 0; i < 300; i++ {
		m.Unmap(as, v.Start+pagetable.VPN(i))
	}
	m.Compute(5 * sim.Second)
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestS3FIFOStop(t *testing.T) {
	s := NewS3FIFO(1 * sim.Second)
	m := newMachine(64, 64, s)
	s.Stop()
	m.Compute(5 * sim.Second)
	if m.Mem.Counters.PagesScanned != 0 {
		t.Fatal("stopped s3fifo scanned")
	}
}
