package kvstore

import (
	"fmt"

	"multiclock/internal/pagetable"
)

// index maps keys to item references: an open-addressed table probed
// linearly from the low bits of hash(key), which every store operation has
// already computed to find the key's bucket page. It is the host-side
// bookkeeping of the simulated hash table, so it issues no simulated access
// and is never iterated during a run.
type index struct {
	slots []slot // power-of-two length, at most three quarters occupied
	n     int
}

// slot holds one item: its key and its reference packed into one word.
// npages is positive for every stored item, so a zero ref marks the slot
// empty.
type slot struct {
	key uint64
	ref uint64
}

// A packed reference holds npages in its low bits, class+1 above them and
// the VPN in the rest.
const (
	npagesBits = 21 // 1 … arenaPages
	classBits  = 3  // class+1: 0 … len(classSizes)
	vpnShift   = npagesBits + classBits
)

// The fields must hold every reference the store can make.
const (
	_ uint64 = 1<<npagesBits - 1 - arenaPages
	_ uint64 = 1<<classBits - 1 - uint64(len(classSizes))
	_ uint64 = 0 - uint64(pagetable.MaxVPN>>(64-vpnShift))
)

// pack returns ref as one word. A reference whose fields do not fit panics:
// truncating it would hand another item's pages back on a get.
func pack(ref itemRef) uint64 {
	if ref.vpn > pagetable.MaxVPN || ref.npages < 1 || ref.npages > arenaPages ||
		ref.class < -1 || int(ref.class) >= len(classSizes) {
		panic(fmt.Sprintf("kvstore: item reference %+v does not pack", ref))
	}
	return uint64(ref.vpn)<<vpnShift | uint64(ref.class+1)<<npagesBits | uint64(ref.npages)
}

// unpack inverts pack.
func unpack(w uint64) itemRef {
	return itemRef{
		vpn:    pagetable.VPN(w >> vpnShift),
		npages: int32(w & (1<<npagesBits - 1)),
		class:  int8(w>>npagesBits&(1<<classBits-1)) - 1,
	}
}

const minIndexSlots = 16

// newIndex returns an index with room for n items.
func newIndex(n int) index {
	size := minIndexSlots
	for 4*n > 3*size {
		size *= 2
	}
	return index{slots: make([]slot, size)}
}

// find returns the position of key's slot, or of the empty slot where it
// would go. h must be hash(key).
func (x *index) find(h, key uint64) uint64 {
	mask := uint64(len(x.slots) - 1)
	i := h & mask
	for x.slots[i].key != key && x.slots[i].ref != 0 {
		i = (i + 1) & mask
	}
	return i
}

// get returns key's item as a packed word (see unpack), or 0 when key is
// absent. The caller unpacks only a hit, which keeps get inlinable.
func (x *index) get(h, key uint64) uint64 {
	return x.slots[x.find(h, key)].ref
}

// put stores ref under key, replacing any item already there.
func (x *index) put(h, key uint64, ref itemRef) {
	w := pack(ref)
	i := x.find(h, key)
	if x.slots[i].ref == 0 {
		if 4*(x.n+1) > 3*len(x.slots) {
			x.grow()
			i = x.find(h, key)
		}
		x.n++
	}
	x.slots[i] = slot{key: key, ref: w}
}

// grow doubles the table. Keys are rehashed: a slot stores no hash.
func (x *index) grow() {
	old := x.slots
	x.slots = make([]slot, 2*len(old))
	for _, s := range old {
		if s.ref != 0 {
			x.slots[x.find(hash(s.key), s.key)] = s
		}
	}
}

// del removes key, reporting the item it held. Later items of the same probe
// run shift back over the hole, so no tombstones are left.
func (x *index) del(h, key uint64) (itemRef, bool) {
	hole := x.find(h, key)
	w := x.slots[hole].ref
	if w == 0 {
		return itemRef{}, false
	}
	x.n--
	mask := uint64(len(x.slots) - 1)
	for i := (hole + 1) & mask; x.slots[i].ref != 0; i = (i + 1) & mask {
		// The item at i stays if its home slot lies cyclically in
		// (hole, i]: its probe run starts after the hole.
		if home := hash(x.slots[i].key) & mask; (i-home)&mask >= (i-hole)&mask {
			x.slots[hole] = x.slots[i]
			hole = i
		}
	}
	x.slots[hole] = slot{}
	return unpack(w), true
}
