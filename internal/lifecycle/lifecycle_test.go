package lifecycle

import (
	"testing"

	"multiclock/internal/machine"
	"multiclock/internal/mem"
	"multiclock/internal/metrics"
	"multiclock/internal/pagetable"
)

// nullPolicy is static placement with base latency: the Fig. 4 ladder is
// driven by hand so each rung is attributable to one call.
type nullPolicy struct{ machine.Base }

func (*nullPolicy) Name() string { return "null" }

func testMachine(dram, pm int) *machine.Machine {
	cfg := machine.DefaultConfig()
	cfg.Mem.DRAMNodes = []int{dram}
	cfg.Mem.PMNodes = []int{pm}
	cfg.OpCost = 0
	cfg.CPUCachePages = 0
	return machine.New(cfg, &nullPolicy{})
}

// step is one expected (state, reason) rung of a timeline.
type step struct{ state, reason string }

// wantTimeline asserts a page's exported event sequence rung by rung.
func wantTimeline(t *testing.T, tr *Tracer, va uint64, want []step) {
	t.Helper()
	ex := tr.Export()
	var pg *metrics.PageTimeline
	for i := range ex.Pages {
		if ex.Pages[i].VA == va {
			pg = &ex.Pages[i]
		}
	}
	if pg == nil {
		t.Fatalf("page %#x not traced (have %d pages)", va, len(ex.Pages))
	}
	for i, ev := range pg.Events {
		if i >= len(want) {
			t.Fatalf("event %d: extra (%s, %s), want end of timeline", i, ev.State, ev.Reason)
		}
		if ev.State != want[i].state || ev.Reason != want[i].reason {
			t.Fatalf("event %d: (%s, %s), want (%s, %s)", i, ev.State, ev.Reason, want[i].state, want[i].reason)
		}
		if i > 0 && ev.At < pg.Events[i-1].At {
			t.Fatalf("event %d: time %d before predecessor %d", i, ev.At, pg.Events[i-1].At)
		}
	}
	if len(pg.Events) < len(want) {
		t.Fatalf("timeline has %d events, want %d: next missing rung (%s, %s)",
			len(pg.Events), len(want), want[len(pg.Events)].state, want[len(pg.Events)].reason)
	}
}

// TestFig4Ladder drives one page through the full Fig. 4 ladder by hand —
// birth, the reference climb (1)(6)(7)(10), promote refresh-spend and decay
// (11)(12), migration both directions, and unmapping — and asserts the
// tracer records exactly that walk, in order, with the refined reasons.
func TestFig4Ladder(t *testing.T) {
	m := testMachine(64, 64)
	tr := New(Config{}).Bind(m)
	as := m.NewSpace()
	v := as.Mmap(1, false, "x")

	// Fault + four supervised accesses climb inactive-unref → promote.
	for i := 0; i < 4; i++ {
		m.SupervisedAccess(as, v.Start, false)
	}
	pg := as.Lookup(v.Start)
	vec := m.Vecs[pg.Node]

	// Promote decay: the first scan spends the kept referenced bit (12),
	// the second drops the page back to active (11).
	if vec.DecayPromote(pg) {
		t.Fatal("referenced promote page decayed on first scan")
	}
	if !vec.DecayPromote(pg) {
		t.Fatal("unreferenced promote page survived second scan")
	}

	// Migrate DRAM → PM ("demoted"), PM → DRAM ("promoted").
	pmNode := m.Mem.TierNodes(mem.TierPM)[0]
	dramNode := m.Mem.TierNodes(mem.TierDRAM)[0]
	if !m.MigratePage(pg, pmNode) || !m.MigratePage(pg, dramNode) {
		t.Fatal("hand migrations failed")
	}
	m.Unmap(as, v.Start)

	wantTimeline(t, tr, v.Start.Addr(), []step{
		{"inactive-unref", "birth"},        // (5) fault-in
		{"inactive-ref", "access"},         // (1)
		{"active-unref", "access"},         // (6)
		{"active-ref", "access"},           // (7)
		{"promote-ref", "access"},          // (10), referenced kept on entry
		{"promote-unref", "promote-decay"}, // (12) refresh spent
		{"active-unref", "promote-decay"},  // (11) decay to active
		{"isolated", "isolate"},            // DRAM→PM migration begins
		{"active-unref", "putback"},        // lands on the PM vec
		{"active-unref", "demoted"},        // migration outcome, node = dst
		{"isolated", "isolate"},            // PM→DRAM migration begins
		{"active-unref", "putback"},
		{"active-unref", "promoted"},
		{"gone", "unmapped"}, // LRU delete during Unmap
		{"gone", "freed"},    // frame released
	})

	// The exported section must satisfy its own schema.
	if err := metrics.ValidateSections(tr.Export(), nil); err != nil {
		t.Fatalf("export does not validate: %v", err)
	}
}

// TestPingPongCounted: a page migrated back and forth N times must carry
// Migrations == 2N (each round trip is two successful migrations), making it
// the top ping-pong candidate among otherwise idle pages.
func TestPingPongCounted(t *testing.T) {
	m := testMachine(64, 64)
	tr := New(Config{}).Bind(m)
	as := m.NewSpace()
	v := as.Mmap(8, false, "x")
	for i := uint64(0); i < 8; i++ {
		m.Access(as, v.Start+pagetable.VPN(i), false)
	}
	hot := as.Lookup(v.Start + 3)
	pm := m.Mem.TierNodes(mem.TierPM)[0]
	dram := m.Mem.TierNodes(mem.TierDRAM)[0]
	const trips = 5
	for i := 0; i < trips; i++ {
		if !m.MigratePage(hot, pm) || !m.MigratePage(hot, dram) {
			t.Fatal("migration failed")
		}
	}

	ex := tr.Export()
	var best *metrics.PageTimeline
	for i := range ex.Pages {
		if best == nil || ex.Pages[i].Migrations > best.Migrations {
			best = &ex.Pages[i]
		}
	}
	if best == nil || best.VA != hot.VA {
		t.Fatalf("top ping-ponger is %+v, want va %#x", best, hot.VA)
	}
	if best.Migrations != 2*trips {
		t.Fatalf("migrations = %d, want %d", best.Migrations, 2*trips)
	}
}

// TestFailedMigrationRecorded: a migration into a full node must record
// migrate-fail (and no migration count) while restoring the page.
func TestFailedMigrationRecorded(t *testing.T) {
	m := testMachine(64, 2)
	tr := New(Config{}).Bind(m)
	pm := m.Mem.TierNodes(mem.TierPM)[0]
	for m.Mem.Nodes[pm].FreeFrames() > 0 {
		m.Mem.AllocOn(pm, true)
	}
	as := m.NewSpace()
	v := as.Mmap(1, false, "x")
	pg := m.Access(as, v.Start, false)
	if m.MigratePage(pg, pm) {
		t.Fatal("migration into a full node succeeded")
	}

	ex := tr.Export()
	if len(ex.Pages) != 1 {
		t.Fatalf("pages traced = %d, want 1", len(ex.Pages))
	}
	p := ex.Pages[0]
	if p.Migrations != 0 {
		t.Fatalf("failed migration counted: %d", p.Migrations)
	}
	var sawFail, sawRestore bool
	for _, ev := range p.Events {
		if ev.Reason == "migrate-fail" {
			sawFail = true
		}
		if sawFail && ev.Reason == "putback" {
			sawRestore = true
		}
	}
	if !sawFail || !sawRestore {
		t.Fatalf("want migrate-fail then putback, got %+v", p.Events)
	}
}

// TestSwapOutRecordsDeath: the tracer must resolve the page identity on the
// swap path even though the page table clears pg.Space first.
func TestSwapOutRecordsDeath(t *testing.T) {
	m := testMachine(64, 64)
	tr := New(Config{}).Bind(m)
	as := m.NewSpace()
	v := as.Mmap(1, false, "x")
	pg := m.Access(as, v.Start, false)
	m.Vecs[pg.Node].Isolate(pg)
	m.SwapOut(pg)

	ex := tr.Export()
	if len(ex.Pages) != 1 || ex.Pages[0].VA != v.Start.Addr() {
		t.Fatalf("swap-out lost the page identity: %+v", ex.Pages)
	}
	evs := ex.Pages[0].Events
	last := evs[len(evs)-1]
	if last.State != "gone" || last.Reason != "swap-out" {
		t.Fatalf("final event (%s, %s), want (gone, swap-out)", last.State, last.Reason)
	}
}

// TestSamplingBoundsAndDeterminism: SampleMod must trace a strict,
// deterministic subset; two identical runs export identical sections.
func TestSamplingBoundsAndDeterminism(t *testing.T) {
	run := func(mod uint64) *metrics.LifecycleExport {
		m := testMachine(256, 256)
		tr := New(Config{SampleMod: mod}).Bind(m)
		as := m.NewSpace()
		v := as.Mmap(128, false, "x")
		for i := uint64(0); i < 128; i++ {
			m.SupervisedAccess(as, v.Start+pagetable.VPN(i), false)
		}
		return tr.Export()
	}
	all, sampled := run(1), run(8)
	if len(all.Pages) != 128 {
		t.Fatalf("mod 1 traced %d pages, want 128", len(all.Pages))
	}
	if len(sampled.Pages) == 0 || len(sampled.Pages) >= len(all.Pages) {
		t.Fatalf("mod 8 traced %d of %d pages, want a strict non-empty subset", len(sampled.Pages), len(all.Pages))
	}
	again := run(8)
	if len(again.Pages) != len(sampled.Pages) {
		t.Fatalf("sampling not deterministic: %d vs %d pages", len(again.Pages), len(sampled.Pages))
	}
	for i := range again.Pages {
		if again.Pages[i].VA != sampled.Pages[i].VA || again.Pages[i].Space != sampled.Pages[i].Space {
			t.Fatal("sampling not deterministic: different pages")
		}
	}
}

// TestMemoryBounds: the page and per-page event caps must hold, be counted,
// and still produce a valid export.
func TestMemoryBounds(t *testing.T) {
	const n = maxPages + 16
	m := testMachine(n+64, 64)
	tr := New(Config{}).Bind(m)
	as := m.NewSpace()
	v := as.Mmap(n, false, "x")
	for i := 0; i < n; i++ {
		m.SupervisedAccess(as, v.Start+pagetable.VPN(i), false)
	}
	// Cycle the first page off and back onto its list past the event cap.
	pg := as.Lookup(v.Start)
	for i := 0; i < maxEventsPerPage; i++ {
		m.Vecs[pg.Node].Isolate(pg)
		m.Vecs[pg.Node].Putback(pg)
	}
	ex := tr.Export()
	if len(ex.Pages) != maxPages {
		t.Fatalf("pages = %d, want maxPages = %d", len(ex.Pages), maxPages)
	}
	if ex.PagesDropped == 0 || ex.EventsDropped == 0 {
		t.Fatalf("drops not counted: pages=%d events=%d", ex.PagesDropped, ex.EventsDropped)
	}
	capped := 0
	for _, p := range ex.Pages {
		if len(p.Events) > maxEventsPerPage {
			t.Fatalf("page %#x has %d events over cap", p.VA, len(p.Events))
		}
		if len(p.Events) == maxEventsPerPage {
			capped++
		}
		// The head of the timeline survives: birth is event zero.
		if p.Events[0].Reason != "birth" {
			t.Fatalf("truncation lost the birth event: %+v", p.Events[0])
		}
	}
	if capped != 1 {
		t.Fatalf("%d pages at the event cap, want the cycled one", capped)
	}
	if err := metrics.ValidateSections(ex, nil); err != nil {
		t.Fatalf("bounded export does not validate: %v", err)
	}
}

// TestExportIdempotent: Export must not mutate the tracer.
func TestExportIdempotent(t *testing.T) {
	m := testMachine(64, 64)
	tr := New(Config{}).Bind(m)
	as := m.NewSpace()
	v := as.Mmap(4, false, "x")
	for i := uint64(0); i < 4; i++ {
		m.SupervisedAccess(as, v.Start+pagetable.VPN(i), false)
	}
	a, b := tr.Export(), tr.Export()
	if len(a.Pages) != len(b.Pages) {
		t.Fatal("repeat export diverges")
	}
	for i := range a.Pages {
		if len(a.Pages[i].Events) != len(b.Pages[i].Events) {
			t.Fatal("repeat export diverges in events")
		}
	}
	// Mutating one export's slices must not leak into the next.
	if len(a.Pages) > 0 && len(a.Pages[0].Events) > 0 {
		a.Pages[0].Events[0].Reason = "tampered"
		if tr.Export().Pages[0].Events[0].Reason == "tampered" {
			t.Fatal("export aliases tracer memory")
		}
	}
}
