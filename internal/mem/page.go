// Package mem models the physical side of a hybrid (DRAM + persistent
// memory) machine: NUMA nodes that each belong to a memory tier, physical
// frames with free-list allocation and watermark-based pressure levels, page
// descriptors (the analogue of Linux's struct page), page migration between
// nodes, a calibrated latency model for the tiers, and vmstat-style event
// counters.
//
// The package corresponds to the parts of the paper's prototype that live in
// mm/page_alloc.c, include/linux/mmzone.h and the DAX-KMEM driver tagging of
// persistent-memory nodes (MULTI-CLOCK §IV): PM capacity is exposed as
// additional NUMA nodes whose pglist_data carries a tier tag.
package mem

import (
	"fmt"

	"multiclock/internal/sim"
)

// PageSize is the size of a page/frame in bytes (4 KiB, matching the
// paper's base pages; MULTI-CLOCK handles all page types, §II-D Table I).
const PageSize = 4096

// Tier identifies a memory tier, ordered from highest performing (lowest
// value) to lowest performing.
type Tier int8

const (
	// TierDRAM is the high-performance, low-capacity tier — always tier 0
	// (the fastest tier) of the default two-tier topology.
	TierDRAM Tier = iota
	// TierPM is the persistent-memory tier: higher capacity, higher
	// latency, asymmetric reads and writes (Intel Optane DCPMM-like) —
	// tier 1 of the default two-tier topology. Deeper hierarchies are
	// described by a Topology; code that must work on any hierarchy
	// navigates tier-relatively (System.Above/Below/FastestTier) instead
	// of naming tiers.
	TierPM
)

// String returns the conventional name of the tier under the default
// two-tier topology; System.TierName resolves names for any hierarchy.
func (t Tier) String() string {
	switch t {
	case TierDRAM:
		return "DRAM"
	case TierPM:
		return "PM"
	default:
		return fmt.Sprintf("Tier(%d)", int(t))
	}
}

// NodeID names a NUMA node within a System.
type NodeID int32

// NoNode is the invalid node ID.
const NoNode NodeID = -1

// FrameID is a physical frame number within its node.
type FrameID int32

// NoFrame is the invalid frame number.
const NoFrame FrameID = -1

// PageFlags is the page descriptor flag word, mirroring the kernel's
// page->flags. MULTI-CLOCK adds PagePromote to the standard set (§IV).
type PageFlags uint16

const (
	// FlagLRU is set while the page sits on one of the LRU lists.
	FlagLRU PageFlags = 1 << iota
	// FlagActive marks pages on an active list.
	FlagActive
	// FlagReferenced is the software referenced flag maintained by
	// mark_page_accessed-style aging (distinct from the hardware
	// accessed bit below).
	FlagReferenced
	// FlagPromote is MULTI-CLOCK's new flag: the page belongs to the
	// promote list and is a candidate for migration to a higher tier.
	FlagPromote
	// FlagDirty tracks whether the page has been written since the last
	// cleaning; demoting or swapping a dirty page costs a writeback.
	FlagDirty
	// FlagUnevictable pins the page (mlock); it can be neither evicted
	// nor migrated.
	FlagUnevictable
	// FlagFile marks file-backed pages; unset means anonymous.
	FlagFile
	// FlagIsolated is set while the page is detached from the LRU for
	// migration, preventing concurrent list manipulation.
	FlagIsolated
	// FlagPoisoned marks a PTE-poisoned page used by hint-page-fault
	// access tracking (AutoTiering/Thermostat-style baselines); the next
	// access takes a software fault.
	FlagPoisoned
	// FlagShadow is set while the page retains a lower-tier shadow copy
	// (Nomad-style non-exclusive tiering); the System holds the shadow's
	// location.
	FlagShadow
)

// Has reports whether all bits in f are set.
func (p PageFlags) Has(f PageFlags) bool { return p&f == f }

// Page is a page descriptor: one logical page of application memory. Unlike
// the kernel, which has one struct page per physical frame, the simulator
// keeps the descriptor stable across migration and updates its (Node, Frame)
// placement — external references (page tables, LRU lists, policy state)
// remain valid, which is exactly what migrate_pages achieves by remapping.
//
// The descriptor is one cache line (64 bytes, 64-byte aligned when it comes
// from a System), and the CLOCK scan and Machine.AccessN touch nothing else
// per page. It holds only what the engine itself reads: a policy's own
// per-page state (AMP's profile, AutoTiering's hint timestamps, S3-FIFO's
// queue membership) lives in a Side table the policy owns, and a Nomad shadow
// copy's location in the System's (FlagShadow marks the pages that have one).
// TestPageLayout pins the size, the line and the alignment (DESIGN.md §7.2).
type Page struct {
	Node  NodeID
	Frame FrameID
	Flags PageFlags

	// Order is the compound-page order: 0 for a base page, MaxOrder (9)
	// for a 2 MiB transparent huge page. The descriptor covers
	// 2^Order frames starting at Frame, like a compound head page.
	Order uint8

	// Accessed and HWDirty model the hardware PTE accessed/dirty bits the
	// CPU sets on load/store. MULTI-CLOCK's scanners read and clear the
	// accessed bit to detect unsupervised accesses (§III-A.2).
	Accessed bool
	HWDirty  bool

	// Hist is scratch space for policies that keep per-page history
	// (AutoTiering-OPM's N-bit coldness vector); it fills a padding byte.
	Hist uint8

	// slab is 1 + the index of the System slab chunk the descriptor was cut
	// from, 0 for a descriptor no System issued. With the descriptor's place
	// in that chunk it is the slot a Side indexes (the last two bytes of
	// padding).
	slab uint16

	// CacheHint is scratch owned by the machine's CPU-cache model: slot
	// index + 1 of this page's base frame in the cache slab, 0 when not
	// cached. It lets the access fast path skip a map lookup entirely.
	CacheHint int32

	// Space and VA back-reference the single virtual mapping (our rmap).
	Space int32
	VA    uint64

	// list is the PageList holding the page (nil when on none) and pos its
	// position in that list's ring.
	list *PageList
	pos  int64

	// Seq is the page's birth sequence number, stamped by the owning System
	// at every birth and never reused. The descriptor's address is: Free
	// hands it to the next birth, so a page's identity is its Seq, and a
	// reference that may outlive the page keeps the Seq beside the pointer
	// and checks it. Birth order is deterministic, so Seq is also a stable
	// cross-run identity — the checkpoint layer serializes every pointer to
	// a page as its Seq.
	Seq uint64

	// BornAt is the virtual time of first allocation (page "birth").
	BornAt sim.Time
}

// Tier reports the tier of the node currently holding the page. It requires
// the owning System for the node→tier mapping.
func (s *System) Tier(pg *Page) Tier { return s.Nodes[pg.Node].Tier }

// Frames returns the number of physical frames the descriptor covers.
func (pg *Page) Frames() int { return 1 << pg.Order }

// IsHuge reports whether this is a compound (huge) page.
func (pg *Page) IsHuge() bool { return pg.Order > 0 }

// OnList reports whether the page currently sits on a PageList.
func (pg *Page) OnList() bool { return pg.list != nil }

// Next returns the page following pg on its list (toward the tail), or nil.
// It steps over tombstones, so one call is O(1) amortised over a walk.
func (pg *Page) Next() *Page { return pg.list.seek(pg.pos+1, 1) }

// Prev returns the page preceding pg on its list (toward the head), or nil.
func (pg *Page) Prev() *Page { return pg.list.seek(pg.pos-1, -1) }

// List returns the list currently holding the page, or nil.
func (pg *Page) List() *PageList { return pg.list }

// IsFile reports whether the page is file-backed.
func (pg *Page) IsFile() bool { return pg.Flags.Has(FlagFile) }

// HasShadow reports whether the page retains a lower-tier shadow copy.
func (pg *Page) HasShadow() bool { return pg.Flags.Has(FlagShadow) }

// SetFlags sets the given flag bits.
func (pg *Page) SetFlags(f PageFlags) { pg.Flags |= f }

// ClearFlags clears the given flag bits.
func (pg *Page) ClearFlags(f PageFlags) { pg.Flags &^= f }

// TestAndClearAccessed returns the hardware accessed bit and clears it,
// mirroring ptep_test_and_clear_young. This is how the CLOCK hand observes
// unsupervised (mmap'd) accesses.
func (pg *Page) TestAndClearAccessed() bool {
	a := pg.Accessed
	pg.Accessed = false
	return a
}

// PageList is an ordered list of pages, the analogue of the kernel's
// list_head LRU lists. A page can be on at most one list; the page records
// its list and position so removal and moves are O(1) and double-insertion
// panics loudly. The zero value is an empty list ready to use.
//
// The order lives in a ring buffer of *Page, not in links inside the
// descriptors: the hand walking in from the tail finds the next pages'
// addresses in sequential memory, so their cache misses overlap instead of
// each waiting for the previous descriptor to arrive (DESIGN.md §7.2). Entries
// occupy positions [front, back), position p in slot p&mask. A removal from
// the middle leaves a nil tombstone; both ends always rest on pages, and a
// push that finds the span as long as the ring makes room (see makeRoom).
type PageList struct {
	ring        []*Page // len is zero or a power of two
	front, back int64
	size        int
	// Name identifies the list in diagnostics (e.g. "anon_promote").
	Name string
}

func (l *PageList) mask() int64 { return int64(len(l.ring) - 1) }

// Len returns the number of pages on the list.
func (l *PageList) Len() int { return l.size }

// Empty reports whether the list has no pages.
func (l *PageList) Empty() bool { return l.size == 0 }

// Front returns the page at the head (most recently added by PushFront), or
// nil if empty.
func (l *PageList) Front() *Page { return l.at(l.front) }

// Back returns the page at the tail (the CLOCK hand scans from here), or nil
// if empty.
func (l *PageList) Back() *Page { return l.at(l.back - 1) }

// at returns the entry at position p: nil for a tombstone or off the list.
func (l *PageList) at(p int64) *Page {
	if p < l.front || p >= l.back {
		return nil
	}
	return l.ring[p&l.mask()]
}

// seek returns the first page at position p or beyond it in direction d (±1),
// or nil off the end of the list. l is nil for a page on no list.
func (l *PageList) seek(p, d int64) *Page {
	for ; l != nil && p >= l.front && p < l.back; p += d {
		if pg := l.ring[p&l.mask()]; pg != nil {
			return pg
		}
	}
	return nil
}

// PushFront inserts pg at the head. The page must not be on any list.
func (l *PageList) PushFront(pg *Page) {
	l.checkFree(pg)
	if int(l.back-l.front) == len(l.ring) {
		l.makeRoom()
	}
	l.front--
	l.ring[l.front&l.mask()] = pg
	pg.list, pg.pos = l, l.front
	l.size++
}

// PushBack inserts pg at the tail. The page must not be on any list.
func (l *PageList) PushBack(pg *Page) {
	l.checkFree(pg)
	if int(l.back-l.front) == len(l.ring) {
		l.makeRoom()
	}
	l.ring[l.back&l.mask()] = pg
	pg.list, pg.pos = l, l.back
	l.back++
	l.size++
}

// Remove unlinks pg from this list. It panics if the page is on a different
// list or on none, which would indicate corrupted LRU state.
func (l *PageList) Remove(pg *Page) {
	if pg.list != l {
		panic(fmt.Sprintf("mem: Remove from %q but page is on %v", l.Name, listName(pg.list)))
	}
	mask := l.mask()
	l.ring[pg.pos&mask] = nil
	pg.list = nil
	l.size--
	switch {
	case l.size == 0:
		l.front, l.back = 0, 0
	case pg.pos == l.front:
		for l.front++; l.ring[l.front&mask] == nil; l.front++ {
		}
	case pg.pos == l.back-1:
		for l.back--; l.ring[(l.back-1)&mask] == nil; l.back-- {
		}
	}
}

// PopBack removes and returns the tail page, or nil if empty.
func (l *PageList) PopBack() *Page {
	pg := l.Back()
	if pg != nil {
		l.Remove(pg)
	}
	return pg
}

// PopFront removes and returns the head page, or nil if empty.
func (l *PageList) PopFront() *Page {
	pg := l.Front()
	if pg != nil {
		l.Remove(pg)
	}
	return pg
}

// MoveToFront rotates pg (already on this list) to the head, the CLOCK
// second-chance action.
func (l *PageList) MoveToFront(pg *Page) {
	if pg.list == l && pg.pos == l.back-1 && l.size > 1 {
		l.front, l.back = rotateTail(l.ring, pg, l.front, l.back, l.size)
		return
	}
	l.Remove(pg)
	l.PushFront(pg)
}

// rotateTail moves pg, the tail page of the span [front, back) of ring, which
// holds size > 1 pages, to the head in place and returns the new span. The
// tail end steps back onto the previous page — over tombstones, if the span
// holds more slots than pages — which leaves the span shorter than the ring,
// so the slot before the head is free (the one just vacated when the span
// filled the ring). It works on values so that AgeRun's loop keeps them in
// registers.
func rotateTail(ring []*Page, pg *Page, front, back int64, size int) (int64, int64) {
	mask := int64(len(ring) - 1)
	back--
	ring[back&mask] = nil
	if int(back-front) >= size {
		for ring[(back-1)&mask] == nil {
			back--
		}
	}
	front--
	ring[front&mask] = pg
	pg.pos = front
	return front, back
}

// AgeRun is the CLOCK hand's run over the pages that stay on this list. From
// the tail, each page takes the scan window's aging step — the hardware
// accessed bit is consumed and becomes the referenced flag: set is Fig. 4
// (1)/(7), cleared is the decay (2) — and rotates to the head. The run ends
// after n pages, or before the first page that shows at least stop of the two
// signals (accessed bit, referenced flag): stop 2 leaves the twice-seen page,
// whose step moves it to another list, to the caller; stop 1 leaves every page
// whose state the step would change, for a caller that reports transitions;
// stop 3 ends the run only at n. A list of fewer than two pages has nothing to
// rotate and is left alone. It returns the pages rotated and how many of them
// had the accessed bit set.
//
// The loop is the simulator's hottest (DESIGN.md §7.5): it keeps the span in
// locals and writes it back once.
func (l *PageList) AgeRun(n, stop int) (run, referenced int) {
	if l.size < 2 {
		return 0, 0
	}
	ring, mask := l.ring, l.mask()
	front, back, size := l.front, l.back, l.size
	for run < n {
		pg := ring[(back-1)&mask]
		seen := 0
		if pg.Accessed {
			seen++
		}
		if pg.Flags&FlagReferenced != 0 {
			seen++
		}
		if seen >= stop {
			break
		}
		if seen != 0 {
			if pg.Accessed {
				pg.Accessed = false
				pg.Flags |= FlagReferenced
				referenced++
			} else {
				pg.Flags &^= FlagReferenced
			}
		}
		front, back = rotateTail(ring, pg, front, back, size)
		run++
	}
	l.front, l.back = front, back
	return run, referenced
}

// Each calls fn for every page from head to tail. fn must not mutate the
// list; use EachSafe when removal during iteration is needed.
func (l *PageList) Each(fn func(*Page)) {
	for p := l.front; p < l.back; p++ {
		if pg := l.ring[p&l.mask()]; pg != nil {
			fn(pg)
		}
	}
}

// EachSafe iterates head→tail, tolerating removal of the current page by fn.
func (l *PageList) EachSafe(fn func(*Page)) {
	for pg := l.Front(); pg != nil; {
		next := pg.Next()
		fn(pg)
		pg = next
	}
}

// makeRoom runs when a push finds the span [front, back) as long as the
// ring. If at least a quarter of the slots are tombstones it squeezes them
// out in place, else it doubles the ring; either way the live entries end up
// contiguous from front. A squeeze moves len(ring) slots and frees at least
// len(ring)/4 of them, each consumed by one later push, so the cost is at
// most four slot moves per push, on top of the usual doubling bound.
func (l *PageList) makeRoom() {
	from, to := l.ring, l.ring
	if holes := len(from) - l.size; holes == 0 || holes < len(from)/4 {
		to = make([]*Page, max(2*len(from), 16))
	}
	fromMask, toMask := int64(len(from)-1), int64(len(to)-1)
	w := l.front
	for p := l.front; p < l.back; p++ {
		if pg := from[p&fromMask]; pg != nil {
			from[p&fromMask] = nil // w never passes p, so this slot is done
			to[w&toMask] = pg
			pg.pos = w
			w++
		}
	}
	l.ring, l.back = to, w
}

func (l *PageList) checkFree(pg *Page) {
	if pg.list != nil {
		panic(fmt.Sprintf("mem: page already on list %q, inserting into %q", listName(pg.list), l.Name))
	}
}

func listName(l *PageList) string {
	if l == nil {
		return "<none>"
	}
	return l.Name
}
