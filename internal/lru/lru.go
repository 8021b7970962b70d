// Package lru implements the per-node page lists and page-aging state
// machine of MULTI-CLOCK (paper §III and Fig. 4).
//
// Each memory node keeps the kernel's five LRU lists — anonymous
// inactive/active, file inactive/active, unevictable — plus the two lists
// MULTI-CLOCK introduces: anonymous promote and file promote. Pages move
// between the lists according to the Fig. 4 transitions:
//
//	inactive unreferenced ⇄ inactive referenced   (1,2)  access / aging
//	inactive referenced   → active unreferenced   (6)    activation
//	active unreferenced   ⇄ active referenced     (7,9')
//	active referenced     → promote               (10)   referenced again
//	promote (unaccessed)  → active unreferenced   (11)
//	promote (accessed)    → promote               (12)
//	active (cold, pressure) → inactive            (9)
//	inactive (cold, pressure) → demote/evict      (3,4)
//
// The lists are CLOCK-style: new and rotated pages enter at the head, the
// hand scans from the tail, and the hardware PTE accessed bit provides the
// reference information for unsupervised (mmap) accesses.
package lru

import (
	"fmt"
	"math"

	"multiclock/internal/mem"
)

// Kind names one of the per-node page lists.
type Kind int8

const (
	InactiveAnon Kind = iota
	ActiveAnon
	PromoteAnon
	InactiveFile
	ActiveFile
	PromoteFile
	Unevictable
	// NumKinds is the number of lists per node.
	NumKinds
)

var kindNames = [NumKinds]string{
	"anon_inactive", "anon_active", "anon_promote",
	"file_inactive", "file_active", "file_promote",
	"unevictable",
}

// String returns the kernel-style list name.
func (k Kind) String() string {
	if k < 0 || k >= NumKinds {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// IsPromote reports whether the kind is one of MULTI-CLOCK's promote lists.
func (k Kind) IsPromote() bool { return k == PromoteAnon || k == PromoteFile }

// IsActive reports whether the kind is an active list.
func (k Kind) IsActive() bool { return k == ActiveAnon || k == ActiveFile }

// IsInactive reports whether the kind is an inactive list.
func (k Kind) IsInactive() bool { return k == InactiveAnon || k == InactiveFile }

// Ladder is the aging ladder a vec's pages climb.
type Ladder uint8

const (
	// MultiClockLadder is Fig. 4: an active referenced page referenced again
	// moves to the promote list (10).
	MultiClockLadder Ladder = iota
	// StockLadder is Linux's stock CLOCK, on which Nimble's page selection
	// runs (§II-D): references saturate at active referenced, and no page
	// reaches a promote list.
	StockLadder
)

// Vec is the set of LRU lists for one node (the kernel's lruvec, extended
// with promote lists).
type Vec struct {
	Node   mem.NodeID
	Ladder Ladder
	lists  [NumKinds]mem.PageList

	// Scanned counts pages examined by scanners on this vec.
	Scanned int64

	// hook is the observer chain — nil, a single Hook, or a multiHook
	// fan-out — grown by AddHook so the hot-path nil check in
	// preState/emit stays a single comparison (see state.go).
	hook Hook
}

// NewVec creates the list set for a node, on MULTI-CLOCK's ladder.
func NewVec(node mem.NodeID) *Vec {
	v := &Vec{Node: node}
	for k := Kind(0); k < NumKinds; k++ {
		v.lists[k].Name = fmt.Sprintf("node%d/%s", node, k)
	}
	return v
}

// List exposes one list (read-mostly; mutation should go through Vec
// methods so flags stay consistent).
func (v *Vec) List(k Kind) *mem.PageList { return &v.lists[k] }

// Len returns the population of one list.
func (v *Vec) Len(k Kind) int { return v.lists[k].Len() }

// TotalEvictable returns the number of pages on evictable lists.
func (v *Vec) TotalEvictable() int {
	n := 0
	for k := Kind(0); k < Unevictable; k++ {
		n += v.lists[k].Len()
	}
	return n
}

// kindFor derives the list a page belongs on from its flags.
func kindFor(pg *mem.Page) Kind {
	if pg.Flags.Has(mem.FlagUnevictable) {
		return Unevictable
	}
	file := pg.IsFile()
	switch {
	case pg.Flags.Has(mem.FlagPromote):
		if file {
			return PromoteFile
		}
		return PromoteAnon
	case pg.Flags.Has(mem.FlagActive):
		if file {
			return ActiveFile
		}
		return ActiveAnon
	default:
		if file {
			return InactiveFile
		}
		return InactiveAnon
	}
}

// KindOf reports which list the page currently sits on. The page must be on
// one of this vec's lists.
func (v *Vec) KindOf(pg *mem.Page) Kind {
	k := kindFor(pg)
	if pg.List() != &v.lists[k] {
		panic(fmt.Sprintf("lru: page flags say %v but page is on %q", k, pg.List().Name))
	}
	return k
}

// Add inserts a newly allocated (or newly putback after arrival from
// another node) page at the head of the list its flags select. New pages
// with clear flags land on the inactive list in the
// inactive-unreferenced state — Fig. 4 transition (5).
func (v *Vec) Add(pg *mem.Page) {
	if pg.OnList() {
		panic("lru: Add of page already on a list")
	}
	from := v.preState(pg)
	pg.SetFlags(mem.FlagLRU)
	pg.ClearFlags(mem.FlagIsolated)
	v.lists[kindFor(pg)].PushFront(pg)
	v.emit(pg, from, CauseAdd)
}

// Delete removes the page from its list for unmapping/freeing. Flags other
// than list-membership bookkeeping are left for the caller.
func (v *Vec) Delete(pg *mem.Page) {
	from := v.preState(pg)
	v.lists[v.KindOf(pg)].Remove(pg)
	pg.ClearFlags(mem.FlagLRU)
	v.emit(pg, from, CauseDelete)
}

// Isolate detaches the page for migration, setting FlagIsolated, mirroring
// isolate_lru_page. The page keeps its state flags so Putback can restore
// it to the right list (possibly on a different node's vec).
func (v *Vec) Isolate(pg *mem.Page) {
	from := v.preState(pg)
	v.lists[v.KindOf(pg)].Remove(pg)
	pg.ClearFlags(mem.FlagLRU)
	pg.SetFlags(mem.FlagIsolated)
	v.emit(pg, from, CauseIsolate)
}

// Putback returns an isolated page to the list its flags select on this
// vec (putback_lru_page). Used both when migration fails and to insert a
// migrated page on its destination node.
func (v *Vec) Putback(pg *mem.Page) {
	if !pg.Flags.Has(mem.FlagIsolated) {
		panic("lru: Putback of non-isolated page")
	}
	pg.ClearFlags(mem.FlagIsolated)
	pg.SetFlags(mem.FlagLRU)
	v.lists[kindFor(pg)].PushFront(pg)
	v.emit(pg, StateIsolated, CausePutback)
}

// MarkAccessed applies one observed access to the page's LRU state — the
// paper's extended mark_page_accessed (§IV), covering Fig. 4 transitions
// (1), (6), (7), (10) and (12); on the stock ladder an active referenced
// page stays put instead of taking (10). Supervised accesses call it directly;
// unsupervised accesses reach it through Age when a scanner finds the
// hardware accessed bit set.
func (v *Vec) MarkAccessed(pg *mem.Page) {
	if pg.Flags.Has(mem.FlagIsolated) || !pg.Flags.Has(mem.FlagLRU) {
		return // in-flight for migration; the access is simply missed
	}
	from := v.preState(pg)
	v.markAccessed(pg)
	v.emit(pg, from, CauseAccess)
}

// markAccessed is MarkAccessed without the transition hook bracketing.
func (v *Vec) markAccessed(pg *mem.Page) {
	switch k := v.KindOf(pg); {
	case k == Unevictable:
		// Locked pages don't age.
	case k.IsInactive():
		if !pg.Flags.Has(mem.FlagReferenced) {
			// (1) inactive unreferenced → inactive referenced.
			pg.SetFlags(mem.FlagReferenced)
		} else {
			// (6) inactive referenced → active unreferenced.
			v.lists[k].Remove(pg)
			pg.ClearFlags(mem.FlagReferenced)
			pg.SetFlags(mem.FlagActive)
			v.lists[kindFor(pg)].PushFront(pg)
		}
	case k.IsActive():
		if !pg.Flags.Has(mem.FlagReferenced) {
			// (7) active unreferenced → active referenced.
			pg.SetFlags(mem.FlagReferenced)
		} else if v.Ladder == MultiClockLadder {
			// (10) active referenced, referenced again → promote list.
			// This is MULTI-CLOCK's recency+frequency selection: the
			// page was recently accessed more than once. The referenced
			// state is kept on entry so the page survives one scan's
			// (11)-decay check before kpromoted collects it — without
			// the grace, pages that qualify between wakeups (supervised
			// accesses) would always decay before collection.
			v.lists[k].Remove(pg)
			pg.ClearFlags(mem.FlagActive)
			pg.SetFlags(mem.FlagPromote)
			v.lists[kindFor(pg)].PushFront(pg)
		}
	case k.IsPromote():
		// (12) accessed in promote state: stays, refreshed.
		pg.SetFlags(mem.FlagReferenced)
	}
}

// Age examines the hardware accessed bit (test-and-clear, like
// ptep_test_and_clear_young) and feeds any observed unsupervised access into
// MarkAccessed. It reports whether the page had been accessed since the
// last scan.
func (v *Vec) Age(pg *mem.Page) bool {
	v.Scanned++
	if pg.TestAndClearAccessed() {
		v.MarkAccessed(pg)
		return true
	}
	return false
}

// DecayPromote applies Fig. 4 transition (11): a promote-list page that was
// not accessed since the last scan returns to the active list in the
// unreferenced state. Returns true if the page was demoted out of promote
// state.
func (v *Vec) DecayPromote(pg *mem.Page) bool {
	k := v.KindOf(pg)
	if !k.IsPromote() {
		panic("lru: DecayPromote on non-promote page")
	}
	if pg.Flags.Has(mem.FlagReferenced) {
		// Was accessed during the window (12): clear for the next round.
		v.spendReferenced(pg)
		return false
	}
	from := v.preState(pg)
	v.lists[k].Remove(pg)
	pg.ClearFlags(mem.FlagPromote | mem.FlagReferenced)
	pg.SetFlags(mem.FlagActive)
	v.lists[kindFor(pg)].PushFront(pg)
	v.emit(pg, from, CauseDecay)
	return true
}

// ClearPromote drops a page out of promote state into active state without
// moving it between vecs; used when a promotion attempt fails (the paper
// moves unmigratable promote pages to the active list, §III-C). The page
// must be isolated.
func ClearPromote(pg *mem.Page) {
	if !pg.Flags.Has(mem.FlagIsolated) {
		panic("lru: ClearPromote on non-isolated page")
	}
	pg.ClearFlags(mem.FlagPromote | mem.FlagReferenced)
	pg.SetFlags(mem.FlagActive)
}

// RequeuePromote restores an isolated page to promote state so Putback
// returns it to the promote list instead of dropping it to active — the
// graceful-degradation requeue for promotions that failed transiently
// (pinned page, destination allocation denial). The referenced flag is set
// so the page survives exactly one scan's (11)-decay check per requeue;
// kpromoted re-requeues pages still in backoff each wakeup, so a page
// awaiting retry stays promote-listed for arbitrarily long backoffs while
// genuinely abandoned pages decay within one window. The page must be
// isolated.
func RequeuePromote(pg *mem.Page) {
	if !pg.Flags.Has(mem.FlagIsolated) {
		panic("lru: RequeuePromote on non-isolated page")
	}
	pg.ClearFlags(mem.FlagActive)
	pg.SetFlags(mem.FlagPromote | mem.FlagReferenced)
}

// CheckConsistency walks every list of the vec and verifies each resident
// page: its flags must select the list it sits on, it must be marked LRU
// and not isolated, it must reference a live frame, and it must live on
// this vec's node. It returns the number of frames covered by resident
// pages (compound pages count all their frames), which machine-level
// invariant checks reconcile against frame and PTE accounting.
func (v *Vec) CheckConsistency() (frames int, err error) {
	for k := Kind(0); k < NumKinds; k++ {
		l := &v.lists[k]
		for pg := l.Front(); pg != nil; pg = pg.Next() {
			if want := kindFor(pg); want != k {
				return frames, fmt.Errorf("lru: page flags select %v but page is on %v", want, k)
			}
			if !pg.Flags.Has(mem.FlagLRU) {
				return frames, fmt.Errorf("lru: page on %v without FlagLRU", k)
			}
			if pg.Flags.Has(mem.FlagIsolated) {
				return frames, fmt.Errorf("lru: isolated page on %v", k)
			}
			if pg.Node == mem.NoNode || pg.Frame == mem.NoFrame {
				return frames, fmt.Errorf("lru: freed page still on %v", k)
			}
			if pg.Node != v.Node {
				return frames, fmt.Errorf("lru: node %d page on node %d's %v list", pg.Node, v.Node, k)
			}
			frames += pg.Frames()
		}
	}
	return frames, nil
}

// Deactivate applies Fig. 4 transition (9): an active page that has stayed
// cold moves to the inactive list (unreferenced).
func (v *Vec) Deactivate(pg *mem.Page) {
	k := v.KindOf(pg)
	if !k.IsActive() {
		panic("lru: Deactivate on non-active page")
	}
	from := v.preState(pg)
	v.lists[k].Remove(pg)
	pg.ClearFlags(mem.FlagActive | mem.FlagReferenced)
	v.lists[kindFor(pg)].PushFront(pg)
	v.emit(pg, from, CauseDeactivate)
}

// ActiveRatioLimit returns the maximum allowed active:inactive ratio for a
// node of the given size, the PFRA heuristic the paper quotes as
// √(10·n):1 with n the node's memory in GiB (§III-C). Small nodes
// floor at 1.
func ActiveRatioLimit(frames int) float64 {
	gb := float64(frames) * float64(mem.PageSize) / (1 << 30)
	r := math.Sqrt(10 * gb)
	if r < 1 {
		return 1
	}
	return r
}
