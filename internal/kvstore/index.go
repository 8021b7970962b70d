package kvstore

// index maps keys to item references: an open-addressed table probed
// linearly from the low bits of hash(key), which every store operation has
// already computed to find the key's bucket page. It is the host-side
// bookkeeping of the simulated hash table, so it issues no simulated access
// and is never iterated during a run.
type index struct {
	slots []slot // power-of-two length, at most half occupied
	n     int
}

// slot holds one item. ref.npages is positive for every stored item, so zero
// marks the slot empty.
type slot struct {
	key uint64
	ref itemRef
}

const minIndexSlots = 16

// newIndex returns an index with room for n items.
func newIndex(n int) index {
	size := minIndexSlots
	for size < 2*n {
		size *= 2
	}
	return index{slots: make([]slot, size)}
}

// find returns the position of key's slot, or of the empty slot where it
// would go. h must be hash(key).
func (x *index) find(h, key uint64) uint64 {
	mask := uint64(len(x.slots) - 1)
	i := h & mask
	for x.slots[i].key != key && x.slots[i].ref.npages != 0 {
		i = (i + 1) & mask
	}
	return i
}

// get returns key's item.
func (x *index) get(h, key uint64) (itemRef, bool) {
	ref := x.slots[x.find(h, key)].ref
	return ref, ref.npages != 0
}

// put stores ref under key, replacing any item already there.
func (x *index) put(h, key uint64, ref itemRef) {
	i := x.find(h, key)
	if x.slots[i].ref.npages == 0 {
		if 2*(x.n+1) > len(x.slots) {
			x.grow()
			i = x.find(h, key)
		}
		x.n++
	}
	x.slots[i] = slot{key: key, ref: ref}
}

// grow doubles the table. Keys are rehashed: a slot stores no hash.
func (x *index) grow() {
	old := x.slots
	x.slots = make([]slot, 2*len(old))
	for _, s := range old {
		if s.ref.npages != 0 {
			x.slots[x.find(hash(s.key), s.key)] = s
		}
	}
}

// del removes key, reporting the item it held. Later items of the same probe
// run shift back over the hole, so no tombstones are left.
func (x *index) del(h, key uint64) (itemRef, bool) {
	hole := x.find(h, key)
	ref := x.slots[hole].ref
	if ref.npages == 0 {
		return ref, false
	}
	x.n--
	mask := uint64(len(x.slots) - 1)
	for i := (hole + 1) & mask; x.slots[i].ref.npages != 0; i = (i + 1) & mask {
		// The item at i stays if its home slot lies cyclically in
		// (hole, i]: its probe run starts after the hole.
		if home := hash(x.slots[i].key) & mask; (i-home)&mask >= (i-hole)&mask {
			x.slots[hole] = x.slots[i]
			hole = i
		}
	}
	x.slots[hole] = slot{}
	return ref, true
}
