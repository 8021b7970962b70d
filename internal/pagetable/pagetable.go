// Package pagetable models per-process virtual address spaces: VMAs created
// by mmap, a three-level radix page table mapping virtual page numbers to
// page descriptors, and the hardware-visible side effects of access (PTE
// accessed/dirty bits) that MULTI-CLOCK's scanners consume for unsupervised
// accesses (§III-A.2).
package pagetable

import (
	"fmt"

	"multiclock/internal/mem"
)

// PageShift is log2 of the page size.
const PageShift = 12

// VPN is a virtual page number (virtual address >> PageShift).
type VPN uint64

// Addr converts the VPN back to the base virtual address of its page.
func (v VPN) Addr() uint64 { return uint64(v) << PageShift }

// VPNOf returns the virtual page number containing address va.
func VPNOf(va uint64) VPN { return VPN(va >> PageShift) }

// Radix tree geometry: three levels of 512 entries cover 2^27 pages
// (512 GiB of virtual address space), ample for the simulation.
const (
	levelBits  = 9
	levelSize  = 1 << levelBits
	levelMask  = levelSize - 1
	maxVPNBits = 3 * levelBits
	// MaxVPN is the highest mappable virtual page number.
	MaxVPN = VPN(1<<maxVPNBits) - 1
)

type pteLeaf [levelSize]*mem.Page
type pmdNode [levelSize]*pteLeaf
type pgdNode [levelSize]*pmdNode

// HugePages is the number of base pages in a transparent huge page
// (2 MiB on x86).
const HugePages = 512

// VMA is one mapped virtual memory area. All pages of a VMA share the same
// backing type (anonymous or file) and lock status.
type VMA struct {
	Start, End VPN // [Start, End) in pages
	File       bool
	Locked     bool // mlock: pages become unevictable
	// Huge requests transparent-huge-page backing: faults populate
	// HugePages-aligned compound pages. The VMA is rounded up to a
	// HugePages multiple at creation.
	Huge bool
	Name string
}

// Pages returns the VMA length in pages.
func (v *VMA) Pages() int { return int(v.End - v.Start) }

// Contains reports whether vpn falls inside the VMA.
func (v *VMA) Contains(vpn VPN) bool { return vpn >= v.Start && vpn < v.End }

// AddressSpace is one process's virtual memory: its VMAs and page table.
type AddressSpace struct {
	ID   int32
	vmas []*VMA
	pgd  pgdNode

	nextVPN VPN // bump allocator for mmap placement
	mapped  int // populated PTE count

	// lookupTag/lookupLeaf memoize the last leaf node Lookup walked to
	// (tag is vpn>>levelBits + 1, so the zero value matches nothing).
	// Leaf nodes are never removed once installed — unmapping only clears
	// PTE slots inside them — so a memoized leaf pointer cannot go stale;
	// the PTE slot itself is re-read on every lookup.
	lookupTag  VPN
	lookupLeaf *pteLeaf

	// swapped records pages written to backing store — bit vpn&63 of word
	// vpn>>6, grown on demand — and nswapped how many; the next fault on
	// such a VPN is a major fault (swap-in).
	swapped  []uint64
	nswapped int
}

// New creates an empty address space. The ID tags page descriptors so
// reverse mapping (page → space) works.
func New(id int32) *AddressSpace {
	return &AddressSpace{
		ID:      id,
		nextVPN: 1, // skip page 0, keep NULL unmapped
	}
}

// MarkSwapped records that vpn's contents live on backing store (set by
// the eviction path after writing the page out).
func (as *AddressSpace) MarkSwapped(vpn VPN) {
	if vpn > MaxVPN {
		panic("pagetable: VPN out of range")
	}
	w := int(vpn >> 6)
	if w >= len(as.swapped) {
		// At least doubling: eviction order is not address order.
		grown := make([]uint64, max(w+1, 2*len(as.swapped)))
		copy(grown, as.swapped)
		as.swapped = grown
	}
	if bit := uint64(1) << (vpn & 63); as.swapped[w]&bit == 0 {
		as.swapped[w] |= bit
		as.nswapped++
	}
}

// TakeSwapped reports and clears vpn's swap residency; a true return means
// the caller's fault is a major fault that must read the page back in.
func (as *AddressSpace) TakeSwapped(vpn VPN) bool {
	w, bit := int(vpn>>6), uint64(1)<<(vpn&63)
	if w >= len(as.swapped) || as.swapped[w]&bit == 0 {
		return false
	}
	as.swapped[w] &^= bit
	as.nswapped--
	return true
}

// Swapped returns the number of swapped-out pages.
func (as *AddressSpace) Swapped() int { return as.nswapped }

// Mmap creates a VMA of npages with a one-page guard gap after the previous
// mapping, returning it. No pages are populated: population happens on first
// touch (demand paging), as with anonymous mmap.
func (as *AddressSpace) Mmap(npages int, file bool, name string) *VMA {
	if npages <= 0 {
		panic("pagetable: Mmap of non-positive length")
	}
	start := as.nextVPN
	end := start + VPN(npages)
	if end > MaxVPN {
		panic("pagetable: virtual address space exhausted")
	}
	as.nextVPN = end + 1 // guard page
	v := &VMA{Start: start, End: end, File: file, Name: name}
	as.vmas = append(as.vmas, v)
	return v
}

// MmapHuge creates a huge-page-backed VMA: size rounds up to a HugePages
// multiple and the start is HugePages-aligned so every fault populates one
// aligned compound page.
func (as *AddressSpace) MmapHuge(npages int, name string) *VMA {
	if npages <= 0 {
		panic("pagetable: MmapHuge of non-positive length")
	}
	npages = (npages + HugePages - 1) / HugePages * HugePages
	// Align the start.
	if rem := as.nextVPN % HugePages; rem != 0 {
		as.nextVPN += HugePages - rem
	}
	start := as.nextVPN
	end := start + VPN(npages)
	if end > MaxVPN {
		panic("pagetable: virtual address space exhausted")
	}
	as.nextVPN = end + 1
	v := &VMA{Start: start, End: end, Huge: true, Name: name}
	as.vmas = append(as.vmas, v)
	return v
}

// InstallRange maps the same compound page descriptor at n consecutive
// VPNs starting at base (the base pages of a huge page all resolve to one
// descriptor, like PTEs under one PMD).
func (as *AddressSpace) InstallRange(base VPN, pg *mem.Page, n int) {
	for i := 0; i < n; i++ {
		as.installOne(base+VPN(i), pg)
	}
	pg.VA = base.Addr()
	pg.Space = as.ID
}

// UnmapRange clears n PTEs from base, returning the descriptor that was
// mapped there (nil if empty). All n entries must map the same page.
func (as *AddressSpace) UnmapRange(base VPN, n int) *mem.Page {
	var pg *mem.Page
	for i := 0; i < n; i++ {
		got := as.unmapOne(base + VPN(i))
		if got != nil {
			if pg != nil && got != pg {
				panic("pagetable: UnmapRange spans different pages")
			}
			pg = got
		}
	}
	if pg != nil {
		pg.Space = -1
	}
	return pg
}

// FindVMA returns the VMA containing vpn, or nil.
func (as *AddressSpace) FindVMA(vpn VPN) *VMA {
	// Linear scan is fine: spaces have a handful of VMAs.
	for _, v := range as.vmas {
		if v.Contains(vpn) {
			return v
		}
	}
	return nil
}

// VMAs returns the current mappings.
func (as *AddressSpace) VMAs() []*VMA { return as.vmas }

// Mapped returns the number of populated PTEs.
func (as *AddressSpace) Mapped() int { return as.mapped }

// Lookup returns the page mapped at vpn, or nil if the PTE is empty.
// Workloads have strong page locality, so the leaf node of the last lookup
// is memoized: repeat lookups under the same leaf skip the radix walk.
func (as *AddressSpace) Lookup(vpn VPN) *mem.Page {
	tag := (vpn >> levelBits) + 1
	if tag == as.lookupTag {
		return as.lookupLeaf[vpn&levelMask]
	}
	pmd := as.pgd[(vpn>>(2*levelBits))&levelMask]
	if pmd == nil {
		return nil
	}
	leaf := pmd[(vpn>>levelBits)&levelMask]
	if leaf == nil {
		return nil
	}
	as.lookupTag = tag
	as.lookupLeaf = leaf
	return leaf[vpn&levelMask]
}

// installOne populates a single PTE without touching the descriptor's
// reverse-mapping fields.
func (as *AddressSpace) installOne(vpn VPN, pg *mem.Page) {
	if vpn > MaxVPN {
		panic("pagetable: VPN out of range")
	}
	pmdIdx := (vpn >> (2 * levelBits)) & levelMask
	pmd := as.pgd[pmdIdx]
	if pmd == nil {
		pmd = new(pmdNode)
		as.pgd[pmdIdx] = pmd
	}
	leafIdx := (vpn >> levelBits) & levelMask
	leaf := pmd[leafIdx]
	if leaf == nil {
		leaf = new(pteLeaf)
		pmd[leafIdx] = leaf
	}
	if leaf[vpn&levelMask] != nil {
		panic(fmt.Sprintf("pagetable: PTE %#x already populated", vpn))
	}
	leaf[vpn&levelMask] = pg
	as.mapped++
}

// Install maps pg at vpn, populating intermediate levels. It panics on an
// already-populated PTE: the simulator never remaps without unmapping.
func (as *AddressSpace) Install(vpn VPN, pg *mem.Page) {
	as.installOne(vpn, pg)
	pg.VA = vpn.Addr()
	pg.Space = as.ID
}

// unmapOne clears a single PTE, returning the page it mapped (nil if
// empty) without touching reverse-mapping fields.
func (as *AddressSpace) unmapOne(vpn VPN) *mem.Page {
	pmd := as.pgd[(vpn>>(2*levelBits))&levelMask]
	if pmd == nil {
		return nil
	}
	leaf := pmd[(vpn>>levelBits)&levelMask]
	if leaf == nil {
		return nil
	}
	pg := leaf[vpn&levelMask]
	if pg != nil {
		leaf[vpn&levelMask] = nil
		as.mapped--
	}
	return pg
}

// Remap atomically points an existing PTE at a different page descriptor
// (huge-page splitting replaces the compound mapping with per-base-page
// mappings). Panics if the PTE was empty.
func (as *AddressSpace) Remap(vpn VPN, pg *mem.Page) {
	if as.unmapOne(vpn) == nil {
		panic(fmt.Sprintf("pagetable: Remap of empty PTE %#x", vpn))
	}
	as.installOne(vpn, pg)
}

// Unmap clears the PTE at vpn and returns the page that was mapped, or nil.
// The caller owns taking the page off LRU lists and freeing the frame.
func (as *AddressSpace) Unmap(vpn VPN) *mem.Page {
	pg := as.unmapOne(vpn)
	if pg != nil {
		pg.Space = -1
	}
	return pg
}

// Walk visits every populated PTE with vpn in [lo, hi) in ascending order.
// fn may unmap the current entry but must not create new mappings.
func (as *AddressSpace) Walk(lo, hi VPN, fn func(vpn VPN, pg *mem.Page)) {
	if hi > MaxVPN+1 {
		hi = MaxVPN + 1
	}
	for pgdIdx := lo >> (2 * levelBits); pgdIdx <= (hi-1)>>(2*levelBits) && pgdIdx < levelSize; pgdIdx++ {
		pmd := as.pgd[pgdIdx]
		if pmd == nil {
			continue
		}
		for pmdIdx := VPN(0); pmdIdx < levelSize; pmdIdx++ {
			leaf := pmd[pmdIdx]
			if leaf == nil {
				continue
			}
			base := pgdIdx<<(2*levelBits) | pmdIdx<<levelBits
			if base+levelSize <= lo || base >= hi {
				continue
			}
			for i := VPN(0); i < levelSize; i++ {
				vpn := base | i
				if vpn < lo || vpn >= hi {
					continue
				}
				if pg := leaf[i]; pg != nil {
					fn(vpn, pg)
				}
			}
		}
	}
}

// WalkVMA visits every populated PTE of the VMA.
func (as *AddressSpace) WalkVMA(v *VMA, fn func(vpn VPN, pg *mem.Page)) {
	as.Walk(v.Start, v.End, fn)
}

// Touch models the MMU side effect of an access: it sets the PTE accessed
// bit (and dirty on write). The fault path is the machine's job; Touch
// assumes the page is mapped.
func Touch(pg *mem.Page, write bool) {
	pg.Accessed = true
	if write {
		pg.HWDirty = true
		pg.SetFlags(mem.FlagDirty)
	}
}

// Poison sets the hint-fault poison on the PTE's page so the next access
// takes a software fault (AutoTiering/Thermostat-style tracking).
func Poison(pg *mem.Page) { pg.SetFlags(mem.FlagPoisoned) }

// Unpoison clears the hint-fault poison.
func Unpoison(pg *mem.Page) { pg.ClearFlags(mem.FlagPoisoned) }
