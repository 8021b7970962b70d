package kvstore

import (
	"fmt"
	"sort"

	"multiclock/internal/pagetable"
	"multiclock/internal/snapcodec"
)

// Checkpoint serialization. A restored store is constructed pristine with the
// same Config — New performs exactly two Mmaps and nothing else maps memory
// during the run, so the address-space geometry is reproduced by construction
// and only verified here. The mutable state travels: the arena bump pointer,
// each slab class's partial page and free list (exact LIFO order — allocItem
// pops from the tail), the item table (sorted by key; the index is never
// iterated during the run, so the canonical order is behaviorally exact) and
// the stats.

// SnapshotState encodes the store's mutable state.
func (s *Store) SnapshotState(enc *snapcodec.Encoder) {
	enc.Int(s.nbuckets)
	enc.Int(s.itemTouches)
	enc.Bool(s.hugeArena)
	enc.U64(uint64(s.bucketVMA.Start))
	enc.U64(uint64(s.arena.Start))
	enc.U64(uint64(s.arena.End))
	enc.U64(uint64(s.arenaNext))
	for i := range s.classes {
		c := &s.classes[i]
		enc.U64(uint64(c.cur))
		enc.Int(c.curUsed)
		enc.Int(len(c.free))
		for _, vpn := range c.free {
			enc.U64(uint64(vpn))
		}
	}
	items := make([]slot, 0, s.items.n)
	for _, it := range s.items.slots {
		if it.ref.npages != 0 {
			items = append(items, it)
		}
	}
	sort.Slice(items, func(i, j int) bool { return items[i].key < items[j].key })
	enc.Int(len(items))
	for _, it := range items {
		enc.U64(it.key)
		enc.U64(uint64(it.ref.vpn))
		enc.I64(int64(it.ref.npages))
		enc.I64(int64(it.ref.class))
	}
	for _, v := range []int64{
		s.Stats.Gets, s.Stats.GetHits, s.Stats.Sets, s.Stats.Inserts,
		s.Stats.Deletes, s.Stats.RMWs, s.Stats.ScanRejects,
		s.Stats.BytesStored, s.Stats.EvictedForSpace,
	} {
		enc.I64(v)
	}
}

// carved reports whether pages [vpn, vpn+n) lie in the part of the arena
// allocItem has handed out.
func (s *Store) carved(vpn pagetable.VPN, n int) bool {
	return vpn >= s.arena.Start && vpn < s.arenaNext && pagetable.VPN(n) <= s.arenaNext-vpn
}

// RestoreState decodes into a freshly constructed store of identical
// configuration.
func (s *Store) RestoreState(dec *snapcodec.Decoder) error {
	nbuckets := dec.Int()
	touches := dec.Int()
	huge := dec.Bool()
	bucketStart := pagetable.VPN(dec.U64())
	arenaStart := pagetable.VPN(dec.U64())
	arenaEnd := pagetable.VPN(dec.U64())
	if dec.Err() != nil {
		return dec.Err()
	}
	if nbuckets != s.nbuckets || touches != s.itemTouches || huge != s.hugeArena {
		return fmt.Errorf("kvstore: snapshot geometry (buckets %d touches %d huge %v) does not match store (buckets %d touches %d huge %v)",
			nbuckets, touches, huge, s.nbuckets, s.itemTouches, s.hugeArena)
	}
	if bucketStart != s.bucketVMA.Start || arenaStart != s.arena.Start || arenaEnd != s.arena.End {
		return fmt.Errorf("kvstore: snapshot VMA layout does not match store")
	}
	s.arenaNext = pagetable.VPN(dec.U64())
	if s.arenaNext < s.arena.Start || s.arenaNext > s.arena.End {
		return fmt.Errorf("kvstore: snapshot arena pointer %d outside arena [%d, %d)", s.arenaNext, s.arena.Start, s.arena.End)
	}
	for i := range s.classes {
		c := &s.classes[i]
		c.cur = pagetable.VPN(dec.U64())
		c.curUsed = dec.Int()
		n := dec.Int()
		if dec.Err() != nil {
			return dec.Err()
		}
		if n < 0 || n > dec.Remaining()/8 {
			return fmt.Errorf("kvstore: snapshot claims %d free chunks in %d bytes", n, dec.Remaining())
		}
		if c.curUsed < 0 || c.curUsed > c.perPage {
			return fmt.Errorf("kvstore: snapshot class %d has %d of %d chunks used", i, c.curUsed, c.perPage)
		}
		if c.cur != 0 && !s.carved(c.cur, 1) {
			return fmt.Errorf("kvstore: snapshot class %d slab page %d is not a carved arena page", i, c.cur)
		}
		c.free = c.free[:0]
		for j := 0; j < n; j++ {
			vpn := pagetable.VPN(dec.U64())
			if dec.Err() == nil && !s.carved(vpn, 1) {
				return fmt.Errorf("kvstore: snapshot class %d frees chunk page %d outside the carved arena", i, vpn)
			}
			c.free = append(c.free, vpn)
		}
	}
	n := dec.Int()
	if dec.Err() != nil {
		return dec.Err()
	}
	if n < 0 || n > dec.Remaining()/32 {
		return fmt.Errorf("kvstore: snapshot claims %d items in %d bytes", n, dec.Remaining())
	}
	s.items = newIndex(n)
	for i := 0; i < n; i++ {
		k := dec.U64()
		ref := itemRef{
			vpn:    pagetable.VPN(dec.U64()),
			npages: int32(dec.I64()),
			class:  int8(dec.I64()),
		}
		if dec.Err() != nil {
			return dec.Err()
		}
		h := hash(k)
		if _, dup := s.items.get(h, k); dup {
			return fmt.Errorf("kvstore: snapshot repeats item key %d", k)
		}
		if ref.npages <= 0 || ref.class < -1 || int(ref.class) >= len(classSizes) ||
			(ref.class >= 0 && ref.npages != 1) || !s.carved(ref.vpn, int(ref.npages)) {
			return fmt.Errorf("kvstore: snapshot item %d has invalid layout", k)
		}
		s.items.put(h, k, ref)
	}
	for _, p := range []*int64{
		&s.Stats.Gets, &s.Stats.GetHits, &s.Stats.Sets, &s.Stats.Inserts,
		&s.Stats.Deletes, &s.Stats.RMWs, &s.Stats.ScanRejects,
		&s.Stats.BytesStored, &s.Stats.EvictedForSpace,
	} {
		*p = dec.I64()
	}
	return dec.Err()
}
