package lru

import (
	"fmt"
	"strings"
	"testing"

	"multiclock/internal/mem"
	"multiclock/internal/sim"
)

// refScanList is scanList as it stood before the hand became a run kernel
// (mem.PageList.AgeRun): every page takes the per-page path. Kept verbatim,
// less the read-ahead load, as the reference TestRunKernelAgainstPerPageScan
// compares the kernel with.
func (v *Vec) refScanList(k Kind, n int) ScanStats {
	var stats ScanStats
	l := &v.lists[k]
	for i := 0; i < n; i++ {
		pg := l.Back()
		if pg == nil {
			return stats
		}
		stats.Scanned++
		wasKind := k
		if v.Age(pg) {
			stats.Referenced++
			switch nowKind := kindFor(pg); {
			case wasKind.IsInactive() && nowKind.IsActive():
				stats.Activated++
			case wasKind.IsActive() && nowKind.IsPromote():
				stats.ToPromote++
			}
		} else if !k.IsPromote() && pg.Flags.Has(mem.FlagReferenced) {
			v.spendReferenced(pg)
		}
		if pg.List() == l {
			if k.IsPromote() {
				if v.DecayPromote(pg) {
					stats.FromPromote++
					continue
				}
			}
			l.MoveToFront(pg)
		}
	}
	return stats
}

// refScanCycle is ScanCycle over the per-page reference: the same quotas,
// each list scanned by refScanList.
func (v *Vec) refScanCycle(batch int) ScanStats {
	var stats ScanStats
	var lens [Unevictable]int
	total := 0
	for k := Kind(0); k < Unevictable; k++ {
		lens[k] = v.lists[k].Len()
		total += lens[k]
	}
	if total == 0 || batch <= 0 {
		return stats
	}
	quotas := v.quotas(&lens, total, batch)
	for k := Kind(0); k < Unevictable; k++ {
		if quotas[k] > 0 {
			stats.Add(v.refScanList(k, quotas[k]))
		}
	}
	return stats
}

// markAccessedRecency is the stock-ladder aging step as it stood while
// Nimble and S3-FIFO had a hand of their own, kept verbatim for
// refScanCycleRecency.
func (v *Vec) markAccessedRecency(pg *mem.Page) {
	if pg.Flags.Has(mem.FlagIsolated) || !pg.Flags.Has(mem.FlagLRU) {
		return
	}
	switch k := v.KindOf(pg); {
	case k == Unevictable:
	case k.IsInactive():
		if !pg.Flags.Has(mem.FlagReferenced) {
			pg.SetFlags(mem.FlagReferenced)
		} else {
			v.lists[k].Remove(pg)
			pg.ClearFlags(mem.FlagReferenced)
			pg.SetFlags(mem.FlagActive)
			v.lists[kindFor(pg)].PushFront(pg)
		}
	default:
		// Active (or, defensively, promote): just refresh the reference.
		pg.SetFlags(mem.FlagReferenced)
	}
}

// refScanCycleRecency is the pre-kernel ScanCycleRecency, the stock ladder's
// own hand before scanList became the only one, likewise verbatim. It reports
// no transition to hooks.
func (v *Vec) refScanCycleRecency(batch int) ScanStats {
	var stats ScanStats
	var lens [Unevictable]int
	total := 0
	for k := Kind(0); k < Unevictable; k++ {
		lens[k] = v.lists[k].Len()
		total += lens[k]
	}
	if total == 0 || batch <= 0 {
		return stats
	}
	for k := Kind(0); k < Unevictable; k++ {
		if lens[k] == 0 {
			continue
		}
		quota := batch * lens[k] / total
		if quota == 0 {
			quota = 1
		}
		if quota > lens[k] {
			quota = lens[k]
		}
		l := &v.lists[k]
		for i := 0; i < quota; i++ {
			pg := l.Back()
			if pg == nil {
				break
			}
			stats.Scanned++
			v.Scanned++
			wasInactive := k.IsInactive()
			if pg.TestAndClearAccessed() {
				stats.Referenced++
				v.markAccessedRecency(pg)
				if wasInactive && kindFor(pg).IsActive() {
					stats.Activated++
				}
			} else if pg.Flags.Has(mem.FlagReferenced) {
				pg.ClearFlags(mem.FlagReferenced)
			}
			if pg.List() == l {
				l.MoveToFront(pg)
			}
		}
	}
	return stats
}

// eventLog records every transition with the page's identity (its VA).
type eventLog []string

func (e *eventLog) PageTransition(pg *mem.Page, node mem.NodeID, from, to State, cause Cause) {
	*e = append(*e, fmt.Sprintf("page %d: %v > %v (%v)", pg.VA, from, to, cause))
}

// twinVecs is one population held twice: ref is scanned by the per-page
// reference, got by the code under test. Page i of one is page i of the
// other (VA = i); every mutation the test makes goes to both.
type twinVecs struct {
	ref, got       *Vec
	refPgs, gotPgs []*mem.Page
	refLog, gotLog eventLog
}

func (tw *twinVecs) add(flags mem.PageFlags) int {
	id := len(tw.refPgs)
	tw.refPgs = append(tw.refPgs, &mem.Page{Flags: flags, VA: uint64(id)})
	tw.gotPgs = append(tw.gotPgs, &mem.Page{Flags: flags, VA: uint64(id)})
	tw.each(id, func(v *Vec, pg *mem.Page) { v.Add(pg) })
	return id
}

// each applies fn to page id of both vecs.
func (tw *twinVecs) each(id int, fn func(v *Vec, pg *mem.Page)) {
	fn(tw.ref, tw.refPgs[id])
	fn(tw.got, tw.gotPgs[id])
}

// compare checks everything a scan can move: the order of all seven lists
// (Front→Next), every page's flags and accessed bit, Vec.Scanned and the hook
// event sequences.
func (tw *twinVecs) compare() error {
	for k := Kind(0); k < NumKinds; k++ {
		a, b := tw.ref.lists[k].Front(), tw.got.lists[k].Front()
		for i := 0; a != nil || b != nil; i++ {
			if a == nil || b == nil || a.VA != b.VA {
				return fmt.Errorf("%v: order diverges at position %d", k, i)
			}
			a, b = a.Next(), b.Next()
		}
		if tw.ref.Len(k) != tw.got.Len(k) {
			return fmt.Errorf("%v: %d pages, reference has %d", k, tw.got.Len(k), tw.ref.Len(k))
		}
	}
	for id, a := range tw.refPgs {
		if b := tw.gotPgs[id]; a.Flags != b.Flags || a.Accessed != b.Accessed {
			return fmt.Errorf("page %d: flags %#x accessed %v, reference has %#x %v", id, b.Flags, b.Accessed, a.Flags, a.Accessed)
		}
	}
	if tw.ref.Scanned != tw.got.Scanned {
		return fmt.Errorf("Vec.Scanned %d, reference has %d", tw.got.Scanned, tw.ref.Scanned)
	}
	if len(tw.refLog) != len(tw.gotLog) {
		return fmt.Errorf("%d hook events, reference saw %d", len(tw.gotLog), len(tw.refLog))
	}
	for i := range tw.refLog {
		if tw.refLog[i] != tw.gotLog[i] {
			return fmt.Errorf("hook event %d is %q, reference saw %q", i, tw.gotLog[i], tw.refLog[i])
		}
	}
	if _, err := tw.got.CheckConsistency(); err != nil {
		return err
	}
	return nil
}

// TestRunKernelAgainstPerPageScan runs the scanners and their pre-kernel
// per-page versions over twin vecs, once per ladder: all evictable kinds the
// ladder reaches at sizes 0, 1, 2 and large, rings with and without
// tombstones, accessed bits and referenced flags anywhere from none to all,
// quotas from zero to more than twice the list, with and without a hook. On
// the stock ladder a whole pass of ScanCycle is also held against
// refScanCycleRecency, the stock ladder's former hand. After every pass the
// twins must be indistinguishable.
func TestRunKernelAgainstPerPageScan(t *testing.T) {
	kindFlags := [Unevictable]mem.PageFlags{
		InactiveAnon: 0,
		ActiveAnon:   mem.FlagActive,
		PromoteAnon:  mem.FlagPromote,
		InactiveFile: mem.FlagFile,
		ActiveFile:   mem.FlagFile | mem.FlagActive,
		PromoteFile:  mem.FlagFile | mem.FlagPromote,
	}
	densities := []float64{0, 0.05, 0.5, 1}
	for _, ladder := range []Ladder{MultiClockLadder, StockLadder} {
		scannedPages, hookEvents := 0, 0
		for seed := uint64(1); seed <= 48; seed++ {
			rng := sim.NewRNG(seed)
			hooked, tombstoned := seed%2 == 0, seed%4 < 2
			tw := &twinVecs{ref: NewVec(0), got: NewVec(0)}
			tw.ref.Ladder, tw.got.Ladder = ladder, ladder
			if hooked {
				tw.ref.AddHook(&tw.refLog)
				tw.got.AddHook(&tw.gotLog)
			}
			var extras []int
			for k := Kind(0); k < Unevictable; k++ {
				size := []int{0, 1, 2, 40 + rng.Intn(400)}[rng.Intn(4)]
				if ladder == StockLadder && k.IsPromote() {
					size = 0 // a stock vec never holds a promote-list page
				}
				for i := 0; i < size; i++ {
					tw.add(kindFlags[k])
					if tombstoned && rng.Intn(3) == 0 {
						extras = append(extras, tw.add(kindFlags[k]))
					}
				}
			}
			for _, id := range extras {
				tw.each(id, func(v *Vec, pg *mem.Page) { v.Delete(pg) })
			}
			for pass := 0; pass < 12; pass++ {
				accessed, referenced := densities[rng.Intn(len(densities))], densities[rng.Intn(len(densities))]
				for id := range tw.refPgs {
					a, r := rng.Float64() < accessed, rng.Float64() < referenced
					churn := tombstoned && rng.Intn(16) == 0
					tw.each(id, func(v *Vec, pg *mem.Page) {
						if !pg.OnList() {
							return
						}
						pg.Accessed = a
						pg.ClearFlags(mem.FlagReferenced)
						if r {
							pg.SetFlags(mem.FlagReferenced)
						}
						if churn {
							// Out of the middle and back in at the head, as
							// unmap and refault do: a fresh tombstone.
							v.Delete(pg)
							v.Add(pg)
						}
					})
				}
				if pass%3 == 2 {
					batch := []int{1, 7, tw.got.TotalEvictable() / 2, tw.got.TotalEvictable(), 2*tw.got.TotalEvictable() + 1}[rng.Intn(5)]
					var want ScanStats
					if ladder == StockLadder {
						want = tw.ref.refScanCycleRecency(batch)
					} else {
						want = tw.ref.refScanCycle(batch)
					}
					logged := len(tw.gotLog)
					if got := tw.got.ScanCycle(batch); want != got {
						t.Fatalf("%s seed %d pass %d: ScanCycle(%d) = %+v, reference %+v", ladderNames[ladder], seed, pass, batch, got, want)
					}
					if ladder == StockLadder {
						// The former stock hand reported no transition;
						// the events ScanCycle owes a hook are held against
						// refScanList on the other passes.
						tw.gotLog = tw.gotLog[:logged]
					}
				} else {
					for k := Kind(0); k < Unevictable; k++ {
						size := tw.got.Len(k)
						n := []int{0, 1, size / 2, size, size + 3, 2*size + 1}[rng.Intn(6)]
						want, got := tw.ref.refScanList(k, n), tw.got.scanList(k, n)
						if want != got {
							t.Fatalf("%s seed %d pass %d: scanList(%v, %d) over %d pages = %+v, reference %+v", ladderNames[ladder], seed, pass, k, n, size, got, want)
						}
					}
				}
				if err := tw.compare(); err != nil {
					t.Fatalf("%s seed %d pass %d (hook %v, tombstones %v, accessed %.2f, referenced %.2f): %v",
						ladderNames[ladder], seed, pass, hooked, tombstoned, accessed, referenced, err)
				}
				if ladder == StockLadder && tw.got.Len(PromoteAnon)+tw.got.Len(PromoteFile) != 0 {
					t.Fatalf("stock seed %d pass %d: a page reached a promote list", seed, pass)
				}
			}
			scannedPages += int(tw.got.Scanned)
			hookEvents += len(tw.gotLog)
		}
		if scannedPages < 50_000 || hookEvents < 5_000 {
			t.Fatalf("%s: %d pages scanned and %d hook events compared; the populations are too small to mean anything", ladderNames[ladder], scannedPages, hookEvents)
		}
	}
}

// ladderNames labels the ladders in test failures.
var ladderNames = [...]string{MultiClockLadder: "multiclock", StockLadder: "stock"}

// TestStockLadderReportsLikeMultiClock holds the hook events of a ScanCycle
// on a stock vec against those on a MULTI-CLOCK vec: the transitions both
// ladders share — (1), (6), (7) and the referenced decay — are reported
// alike, and only (10) tells them apart.
func TestStockLadderReportsLikeMultiClock(t *testing.T) {
	for _, tc := range []struct {
		name              string
		flags             mem.PageFlags
		accessed          bool
		multiclock, stock string // the event, or "" for none
	}{
		{"(1)", 0, true, "inactive-unref > inactive-ref (access)", "inactive-unref > inactive-ref (access)"},
		{"(6)", mem.FlagReferenced, true, "inactive-ref > active-unref (access)", "inactive-ref > active-unref (access)"},
		{"(7)", mem.FlagActive, true, "active-unref > active-ref (access)", "active-unref > active-ref (access)"},
		{"(2)", mem.FlagReferenced, false, "inactive-ref > inactive-unref (decay)", "inactive-ref > inactive-unref (decay)"},
		{"active decay", mem.FlagActive | mem.FlagReferenced, false, "active-ref > active-unref (decay)", "active-ref > active-unref (decay)"},
		{"(10)", mem.FlagActive | mem.FlagReferenced, true, "active-ref > promote-ref (access)", ""},
		{"idle", mem.FlagActive, false, "", ""},
	} {
		for ladder, want := range map[Ladder]string{MultiClockLadder: tc.multiclock, StockLadder: tc.stock} {
			v := NewVec(0)
			v.Ladder = ladder
			pg := &mem.Page{Flags: tc.flags}
			v.Add(pg)
			var log eventLog
			v.AddHook(&log)
			pg.Accessed = tc.accessed
			v.ScanCycle(1)
			if want != "" {
				want = "page 0: " + want
			}
			if got := strings.Join(log, "; "); got != want {
				t.Errorf("%s on the %s ladder: events %q, want %q", tc.name, ladderNames[ladder], got, want)
			}
		}
	}
}

// TestScanCycleAllocatesNothing pins the pass as allocation-free, kernel and
// per-page path alike (it runs every daemon wakeup): lists of every kind the
// ladder reaches, a third of the pages touched between passes so transitions
// (6), (10) and (11) fire, with and without a hook, on both ladders.
func TestScanCycleAllocatesNothing(t *testing.T) {
	for _, ladder := range []Ladder{MultiClockLadder, StockLadder} {
		for _, hooked := range []bool{false, true} {
			v := NewVec(0)
			v.Ladder = ladder
			if hooked {
				v.AddHook(nopHook{})
			}
			pages := populate(v, 4096)
			for i := 0; i < 2048; i++ {
				pg := filePage()
				v.Add(pg)
				pages = append(pages, pg)
			}
			rng := sim.NewRNG(5)
			touch := func() {
				for i := 0; i < len(pages)/3; i++ {
					pages[rng.Intn(len(pages))].Accessed = true
				}
			}
			for i := 0; i < 8; i++ { // spread the pages over the lists
				touch()
				v.ScanCycle(len(pages))
			}
			for k := Kind(0); k < Unevictable; k++ {
				if (v.Len(k) == 0) != (ladder == StockLadder && k.IsPromote()) {
					t.Fatalf("%s ladder, hook %v: warm-up left %d pages on %v", ladderNames[ladder], hooked, v.Len(k), k)
				}
			}
			if allocs := testing.AllocsPerRun(50, func() {
				touch()
				v.ScanCycle(1024)
			}); allocs != 0 {
				t.Errorf("%s ladder, hook %v: a scan pass allocates %.1f objects, want none", ladderNames[ladder], hooked, allocs)
			}
		}
	}
}

type nopHook struct{}

func (nopHook) PageTransition(*mem.Page, mem.NodeID, State, State, Cause) {}
