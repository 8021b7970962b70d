package policy

// ABA regressions for the lazily pruned queues (DESIGN.md §7.4). Descriptors
// are recycled, so a queue entry left behind by a dead page can find its
// descriptor alive again — as a different page that has entered the same
// queue on its own. Each test fails if entries are matched by pointer alone:
// the newborn would be handled at the dead page's position.

import (
	"testing"

	"multiclock/internal/machine"
	"multiclock/internal/mem"
	"multiclock/internal/pagetable"
	"multiclock/internal/sim"
)

// s3Rebirth is an S3-FIFO machine with its daemon stopped (the tests drive
// the queue routines themselves), DRAM full so births land on PM, and one
// PM-resident page x whose small-queue entry precedes those of the later
// PM births.
type s3Rebirth struct {
	t     *testing.T
	s     *S3FIFO
	m     *machine.Machine
	as    *pagetable.AddressSpace
	q     *s3queues
	x     *mem.Page
	xVPN  pagetable.VPN
	spare pagetable.VPN
}

func newS3Rebirth(t *testing.T) *s3Rebirth {
	s := NewS3FIFO(1 * sim.Second)
	m := newMachine(64, 512, s)
	s.Stop()
	as := m.NewSpace()
	v := fillOver(m, as, 100)
	pm := pmVPNs(m, as, v, 1)
	if len(pm) != 1 {
		t.Fatal("setup: no PM page")
	}
	r := &s3Rebirth{t: t, s: s, m: m, as: as, xVPN: pm[0], spare: as.Mmap(1, false, "spare").Start}
	r.x = as.Lookup(r.xVPN)
	r.q = s.queues[r.x.Node]
	return r
}

// rebirth kills x and faults a new page, which takes over x's descriptor.
func (r *s3Rebirth) rebirth() *mem.Page {
	r.t.Helper()
	seq := r.x.Seq
	r.m.Unmap(r.as, r.xVPN)
	y := r.m.Access(r.as, r.spare, false)
	if y != r.x || y.Seq == seq || r.m.Mem.Tier(y) != mem.TierPM {
		r.t.Fatal("setup: the newborn did not take over the dead page's descriptor on PM")
	}
	return y
}

// position returns the index of the first entry of refs on descriptor pg.
func position(t *testing.T, refs []pageRef, pg *mem.Page) int {
	t.Helper()
	for i, ref := range refs {
		if ref.pg == pg {
			return i
		}
	}
	t.Fatal("setup: descriptor has no queue entry")
	return -1
}

func entries(refs []pageRef, pg *mem.Page) (n int) {
	for _, ref := range refs {
		if ref.pg == pg {
			n++
		}
	}
	return n
}

// drainSmallThrough runs evictSmall over the small queue's head up to and
// including entry i.
func (r *s3Rebirth) drainSmallThrough(i int) {
	r.q.smallCap = len(r.q.small) - (i + 1)
	r.s.evictSmall(r.q)
}

func TestS3FIFOStaleSmallEntrySkipsRebornDescriptor(t *testing.T) {
	r := newS3Rebirth(t)
	y := r.rebirth()
	r.m.Access(r.as, r.spare, false) // a reuse: y would graduate when its turn comes
	r.drainSmallThrough(position(t, r.q.small, r.x))
	if r.s.state.Value(y)&s3MemberMask != s3Small || r.s.SmallToMain != 0 {
		t.Fatal("the dead page's small entry graduated the newborn at the dead page's position")
	}
	if entries(r.q.small, y) != 1 || entries(r.q.main, y) != 0 {
		t.Fatalf("newborn has %d small and %d main entries, want its own small entry only",
			entries(r.q.small, y), entries(r.q.main, y))
	}
	r.drainSmallThrough(len(r.q.small) - 1)
	if r.s.state.Value(y)&s3MemberMask != s3Main || r.s.SmallToMain != 1 || entries(r.q.main, y) != 1 {
		t.Fatal("the newborn did not graduate once, at its own position")
	}
}

func TestS3FIFOStaleGhostEntrySkipsRebornDescriptor(t *testing.T) {
	r := newS3Rebirth(t)
	r.drainSmallThrough(position(t, r.q.small, r.x))
	if r.s.state.Value(r.x) != s3Ghost {
		t.Fatal("setup: x was not quick-demoted to ghost")
	}
	y := r.rebirth()
	r.drainSmallThrough(len(r.q.small) - 1)
	if r.s.state.Value(y) != s3Ghost || entries(r.q.ghost, y) != 2 {
		t.Fatal("setup: the ghost queue does not hold the dead page's entry and the newborn's")
	}
	// Trim exactly through the dead page's entry.
	r.q.ghostCap = len(r.q.ghost) - (position(t, r.q.ghost, r.x) + 1)
	r.s.trimGhost(r.q)
	if r.s.state.Value(y) != s3Ghost {
		t.Fatal("trimming the dead page's ghost entry forgot the newborn's ghost identity")
	}
	r.m.Access(r.as, r.spare, false)
	if r.s.GhostHits != 1 || r.s.state.Value(y)&s3MemberMask != s3Main {
		t.Fatal("the newborn's ghost hit was lost")
	}
}

func TestS3FIFOStaleMainEntrySkipsRebornDescriptor(t *testing.T) {
	r := newS3Rebirth(t)
	r.m.Access(r.as, r.xVPN, false) // one reuse: x graduates, below the promotion bar
	r.drainSmallThrough(position(t, r.q.small, r.x))
	if r.s.state.Value(r.x)&s3MemberMask != s3Main {
		t.Fatal("setup: x did not graduate to main")
	}
	y := r.rebirth()
	r.m.Access(r.as, r.spare, false)
	r.drainSmallThrough(len(r.q.small) - 1)
	if r.s.state.Value(y)&s3MemberMask != s3Main || entries(r.q.main, y) != 2 {
		t.Fatal("setup: the main queue does not hold the dead page's entry and the newborn's")
	}
	r.s.promoteFromMain(r.q) // one pass over the whole queue: both entries rotate or drop
	if n := entries(r.q.main, y); n != 1 || r.q.main[position(t, r.q.main, y)].stale() {
		t.Fatalf("after one pass the newborn has %d main entries, want the one it earned", n)
	}
	if r.s.Promotions != 0 || r.m.Mem.Tier(y) != mem.TierPM {
		t.Fatal("a page below the promotion bar was promoted")
	}
	if err := r.m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNomadStaleShadowedEntrySkipsRebornDescriptor(t *testing.T) {
	nd := NewNomad(1 * sim.Second)
	m := newMachine(128, 1024, nd)
	nd.Stop()
	as := m.NewSpace()
	v := fillOver(m, as, 200)
	pm := pmVPNs(m, as, v, 2)
	if len(pm) != 2 {
		t.Fatal("setup: no PM pages")
	}
	shadowPromote := func(pg *mem.Page) {
		t.Helper()
		m.Vecs[pg.Node].Isolate(pg)
		if !nd.promoteShadow(pg) || !pg.HasShadow() {
			t.Fatal("setup: shadow promotion failed")
		}
	}
	x, z := as.Lookup(pm[0]), as.Lookup(pm[1])
	for i := 0; i < 4; i++ { // room in DRAM for the promotions
		m.Unmap(as, v.Start+pagetable.VPN(i))
	}
	shadowPromote(x) // the oldest shadow
	shadowPromote(z)

	// x dies; y is born into its descriptor and earns a shadow of its own,
	// the youngest of the three entries.
	m.Unmap(as, pm[0])
	spare := as.Mmap(1, false, "spare").Start
	y := m.Access(as, spare, false)
	if y != x {
		t.Fatal("setup: the newborn did not take over the dead page's descriptor")
	}
	if m.Mem.Tier(y) != mem.TierPM && !m.MigratePage(y, m.Mem.TierNodes(mem.TierPM)[0]) {
		t.Fatal("setup: could not place the newborn on PM")
	}
	shadowPromote(y)
	if len(nd.shadowed) != 3 || nd.shadowed[0].pg != y || nd.shadowed[0].seq == y.Seq {
		t.Fatal("setup: the shadowed queue does not start with the dead page's entry")
	}

	// Reclaim is oldest-committed first: the dead page's entry names nobody,
	// so the oldest live shadow is z's.
	if freed := nd.DirectReclaim(1); freed != 1 {
		t.Fatalf("DirectReclaim freed %d frames, want 1", freed)
	}
	if !y.HasShadow() || z.HasShadow() {
		t.Fatal("the dead page's entry gave up the newborn's shadow ahead of an older one")
	}
	if len(nd.shadowed) != 1 || nd.shadowed[0].stale() || nd.shadowed[0].pg != y {
		t.Fatal("the queue should hold the newborn's own entry and nothing else")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// tableWatch wraps a policy whose per-page state lives in a side table, and
// checks at every birth that the newborn inherits nothing: no entry under its
// descriptor, and no more entries than live pages.
type tableWatch struct {
	machine.Policy
	t    *testing.T
	m    *machine.Machine
	has  func(*mem.Page) bool
	size func() int
	// inherited reports an entry at birth that the newborn did not get
	// from the policy's own birth handling; nil means any entry (has).
	inherited func(*mem.Page) bool

	tracked map[*mem.Page]bool // descriptors whose last tenant died with an entry
	reused  int                // births into such a descriptor
	births  int
	peak    int // most entries seen at a birth
}

func (w *tableWatch) live() int {
	n := 0
	for _, as := range w.m.Spaces() {
		n += as.Mapped()
	}
	return n
}

// PageFreed also checks that a restore's zombie for a page dying with an
// entry (its Seq on a descriptor no System issued) reads as having none.
func (w *tableWatch) PageFreed(pg *mem.Page) {
	if w.has(pg) {
		w.tracked[pg] = true
		if zombie := machine.NewPageRegistry().Resolve(pg.Seq); w.has(zombie) {
			w.t.Fatalf("a zombie descriptor for seq %d reads its page's entry", pg.Seq)
		}
	}
	w.Policy.PageFreed(pg)
}

func (w *tableWatch) PageBirth(pg *mem.Page) {
	w.births++
	if w.tracked[pg] {
		w.reused++
		delete(w.tracked, pg)
	}
	if w.inherited(pg) {
		w.t.Fatalf("birth %d (seq %d) found its descriptor's previous entry in %s's table", w.births, pg.Seq, w.Name())
	}
	n, live := w.size(), w.live()
	if n > live {
		w.t.Fatalf("birth %d: %s's table holds %d entries for %d live pages", w.births, w.Name(), n, live)
	}
	w.peak = max(w.peak, n)
	w.Policy.PageBirth(pg)
}

// churn runs the watched machine oversubscribed: faults, swap-outs, unmaps
// and refaults reuse descriptors constantly. Then it checks that some page
// died with an entry and its descriptor was reborn, and that the table held
// entries but never more than the live set.
func (w *tableWatch) churn(t *testing.T, newMachine func(machine.Policy) *machine.Machine) {
	w.t, w.tracked = t, make(map[*mem.Page]bool)
	if w.inherited == nil {
		w.inherited = w.has
	}
	w.m = newMachine(w)
	as := w.m.NewSpace()
	v := as.Mmap(384, false, "churn")
	rng := sim.NewRNG(11)
	for i := 0; i < 40000; i++ {
		// A hot eighth of the range takes half the accesses, so profiles,
		// hint faults, queue state and promotions build up before pages die.
		vpn := v.Start + pagetable.VPN(rng.Intn(384))
		if i%2 == 0 {
			vpn = v.Start + (vpn-v.Start)%48
		}
		if i%97 == 0 {
			w.m.Unmap(as, vpn)
			continue
		}
		w.m.Access(as, vpn, i%5 == 0)
	}
	if w.reused == 0 {
		t.Fatalf("no descriptor of a page that died with an entry was reused (%d births, %d swap-outs)",
			w.births, w.m.Mem.Counters.SwapOuts)
	}
	if n, live := w.size(), w.live(); w.peak == 0 || n > live {
		t.Fatalf("table holds %d entries for %d live pages, at most %d at a birth", n, live, w.peak)
	}
	if err := w.m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d births, %d into a descriptor whose last page died with an entry; at most %d entries",
		w.births, w.reused, w.peak)
}

// TestPerPageTablesForgetDeadPages churns every policy in this package that
// keeps per-page state (AMP's exact profile, AT-OPM's hint times, S3-FIFO's
// queue membership, Nomad's in-flight transactions): a table that kept an
// entry past its page's death would hand the dead page's state to the next
// page born into its descriptor. MULTI-CLOCK's retry table has the same check
// in package core.
func TestPerPageTablesForgetDeadPages(t *testing.T) {
	at := NewAutoTiering(OPM, 100*sim.Microsecond)
	s3 := NewS3FIFO(100 * sim.Microsecond)
	nd := NewNomad(50 * sim.Microsecond)
	watches := []*tableWatch{
		{Policy: at, has: func(pg *mem.Page) bool { return at.lastHint.Get(pg) != nil }, size: func() int { return at.lastHint.Len() }},
		{Policy: s3, has: func(pg *mem.Page) bool { return s3.state.Get(pg) != nil }, size: func() int { return s3.state.Len() },
			// A PM birth is admitted to the small queue before PageBirth.
			inherited: func(pg *mem.Page) bool {
				v := s3.state.Get(pg)
				return v != nil && *v != s3Small|s3Fresh
			}},
		{Policy: nd, has: func(pg *mem.Page) bool { return nd.inflight.Get(pg) != nil }, size: func() int { return nd.inflight.Len() }},
	}
	for _, sel := range []AMPSelector{AMPLRU, AMPLFU, AMPRandom} {
		a := NewAMP(sel, 200*sim.Microsecond)
		watches = append(watches, &tableWatch{Policy: a,
			has: func(pg *mem.Page) bool { return a.prof.Get(pg) != nil }, size: func() int { return a.prof.Len() }})
	}
	for _, w := range watches {
		t.Run(w.Name(), func(t *testing.T) {
			pm := 96
			if w.Policy == nd {
				// Transactions need pages that stay long enough to be
				// touched twice: PM holds the range, DRAM a twelfth of it.
				pm = 512
			}
			w.churn(t, func(p machine.Policy) *machine.Machine { return newMachine(32, pm, p) })
		})
	}
}
