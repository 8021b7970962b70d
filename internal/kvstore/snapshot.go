package kvstore

import (
	"fmt"
	"slices"
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

// Checkpoint codes the store's mutable state; reading, the store is freshly
// constructed with the same configuration.
func (s *Store) Checkpoint(c *snapcodec.Codec) error {
	nbuckets, touches, huge := s.nbuckets, s.itemTouches, s.hugeArena
	bucketStart, arenaStart, arenaEnd := s.bucketVMA.Start, s.arena.Start, s.arena.End
	snapcodec.I64(c, &nbuckets)
	snapcodec.I64(c, &touches)
	c.Bool(&huge)
	snapcodec.U64(c, &bucketStart)
	snapcodec.U64(c, &arenaStart)
	snapcodec.U64(c, &arenaEnd)
	if c.Err() != nil {
		return c.Err()
	}
	if nbuckets != s.nbuckets || touches != s.itemTouches || huge != s.hugeArena {
		return fmt.Errorf("kvstore: snapshot geometry (buckets %d touches %d huge %v) does not match store (buckets %d touches %d huge %v)",
			nbuckets, touches, huge, s.nbuckets, s.itemTouches, s.hugeArena)
	}
	if bucketStart != s.bucketVMA.Start || arenaStart != s.arena.Start || arenaEnd != s.arena.End {
		return fmt.Errorf("kvstore: snapshot VMA layout does not match store")
	}
	snapcodec.U64(c, &s.arenaNext)
	if s.arenaNext < s.arena.Start || s.arenaNext > s.arena.End {
		return fmt.Errorf("kvstore: snapshot arena pointer %d outside arena [%d, %d)", s.arenaNext, s.arena.Start, s.arena.End)
	}
	for i := range s.classes {
		cl := &s.classes[i]
		snapcodec.U64(c, &cl.cur)
		snapcodec.I64(c, &cl.curUsed)
		n := len(cl.free)
		snapcodec.I64(c, &n)
		if c.Err() != nil {
			return c.Err()
		}
		if n < 0 || n > c.Remaining()/8 {
			return fmt.Errorf("kvstore: snapshot claims %d free chunks in %d bytes", n, c.Remaining())
		}
		if cl.curUsed < 0 || cl.curUsed > cl.perPage {
			return fmt.Errorf("kvstore: snapshot class %d has %d of %d chunks used", i, cl.curUsed, cl.perPage)
		}
		if cl.cur != 0 && !s.carved(cl.cur, 1) {
			return fmt.Errorf("kvstore: snapshot class %d slab page %d is not a carved arena page", i, cl.cur)
		}
		if c.Reading() {
			cl.free = slices.Grow(cl.free[:0], n)[:n]
		}
		for j := range cl.free {
			snapcodec.U64(c, &cl.free[j])
			if c.Err() == nil && !s.carved(cl.free[j], 1) {
				return fmt.Errorf("kvstore: snapshot class %d frees chunk page %d outside the carved arena", i, cl.free[j])
			}
		}
	}
	if err := s.checkpointItems(c); err != nil {
		return err
	}
	for _, p := range []*int64{
		&s.Stats.Gets, &s.Stats.GetHits, &s.Stats.Sets, &s.Stats.Inserts,
		&s.Stats.Deletes, &s.Stats.RMWs, &s.Stats.ScanRejects,
		&s.Stats.BytesStored, &s.Stats.EvictedForSpace,
	} {
		snapcodec.I64(c, p)
	}
	return c.Err()
}

// carved reports whether pages [vpn, vpn+n) lie in the part of the arena
// allocItem has handed out.
func (s *Store) carved(vpn pagetable.VPN, n int) bool {
	return vpn >= s.arena.Start && vpn < s.arenaNext && pagetable.VPN(n) <= s.arenaNext-vpn
}

// checkpointItems codes the item table sorted by key. Reading, it rebuilds
// the table, rejecting repeated keys and items outside the carved arena
// before any of them reaches the index.
func (s *Store) checkpointItems(c *snapcodec.Codec) error {
	if !c.Reading() {
		items := make([]item, 0, s.items.n)
		for _, sl := range s.items.slots {
			if sl.ref != 0 {
				items = append(items, item{sl.key, unpack(sl.ref)})
			}
		}
		sort.Slice(items, func(i, j int) bool { return items[i].key < items[j].key })
		n := len(items)
		snapcodec.I64(c, &n)
		for i := range items {
			items[i].checkpoint(c)
		}
		return nil
	}
	var n int
	snapcodec.I64(c, &n)
	if c.Err() != nil {
		return c.Err()
	}
	if n < 0 || n > c.Remaining()/32 {
		return fmt.Errorf("kvstore: snapshot claims %d items in %d bytes", n, c.Remaining())
	}
	s.items = newIndex(n)
	for i := 0; i < n; i++ {
		var it item
		it.checkpoint(c)
		if c.Err() != nil {
			return c.Err()
		}
		k, ref := it.key, it.ref
		h := hash(k)
		if s.items.get(h, k) != 0 {
			return fmt.Errorf("kvstore: snapshot repeats item key %d", k)
		}
		if ref.npages <= 0 || ref.class < -1 || int(ref.class) >= len(classSizes) ||
			(ref.class >= 0 && ref.npages != 1) || !s.carved(ref.vpn, int(ref.npages)) {
			return fmt.Errorf("kvstore: snapshot item %d has invalid layout", k)
		}
		s.items.put(h, k, ref)
	}
	return c.Err()
}

// item is one entry of the checkpointed item table, unpacked.
type item struct {
	key uint64
	ref itemRef
}

// checkpoint codes one item: its key, first page, page count and class.
func (it *item) checkpoint(c *snapcodec.Codec) {
	snapcodec.U64(c, &it.key)
	snapcodec.U64(c, &it.ref.vpn)
	snapcodec.I64(c, &it.ref.npages)
	snapcodec.I64(c, &it.ref.class)
}
