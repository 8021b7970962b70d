package kvstore

import (
	"bytes"
	"encoding/binary"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"multiclock/internal/pagetable"
	"multiclock/internal/sim"
	"multiclock/internal/snapcodec"
)

// collidingKeys returns n keys, key 0 among them, whose hashes agree with
// hash(0) in their low bits: one probe run in any table of up to 1<<bits slots.
func collidingKeys(n int, bits uint) []uint64 {
	mask := uint64(1)<<bits - 1
	keys := []uint64{0}
	for k := uint64(1); len(keys) < n; k++ {
		if hash(k)&mask == hash(0)&mask {
			keys = append(keys, k)
		}
	}
	return keys
}

// checkIndex compares the index with the model key by key and checks the
// table's own invariants: the count, the ¾ load bound, that an empty slot is
// all zero, and that every item is reachable from its home slot without
// crossing an empty one.
func checkIndex(t *testing.T, x *index, model map[uint64]itemRef, probe []uint64) {
	t.Helper()
	if x.n != len(model) {
		t.Fatalf("index holds %d items, model %d", x.n, len(model))
	}
	if 4*x.n > 3*len(x.slots) || len(x.slots)&(len(x.slots)-1) != 0 {
		t.Fatalf("%d items in %d slots", x.n, len(x.slots))
	}
	live := 0
	for _, s := range x.slots {
		if s.ref == 0 {
			if s != (slot{}) {
				t.Fatalf("empty slot keeps %+v", s)
			}
			continue
		}
		live++
		if want, ok := model[s.key]; !ok || want != unpack(s.ref) {
			t.Fatalf("slot holds key %d → %+v, model %+v (present %v)", s.key, unpack(s.ref), want, ok)
		}
	}
	if live != x.n {
		t.Fatalf("%d live slots, count %d", live, x.n)
	}
	for _, k := range probe {
		w := x.get(hash(k), k)
		if want, in := model[k]; (w != 0) != in || in && unpack(w) != want {
			t.Fatalf("get(%d) = %#x; model %+v, %v", k, w, want, in)
		}
	}
}

// TestIndexMatchesMap drives the index and a map through the same random
// inserts, overwrites and deletes, over a key set that mixes one long
// collision chain (with key 0 in it) with scattered keys, through several
// doublings. References span what the packed word holds: any mappable VPN,
// one page up to the whole arena, every class.
func TestIndexMatchesMap(t *testing.T) {
	keys := collidingKeys(40, 12)
	for k := uint64(1); k <= 600; k++ {
		keys = append(keys, k*0x9e3779b97f4a7c15)
	}
	for seed := uint64(1); seed <= 8; seed++ {
		rng := sim.NewRNG(seed)
		x := newIndex(0)
		model := map[uint64]itemRef{}
		for step := 0; step < 20_000; step++ {
			k := keys[rng.Intn(len(keys))]
			if step < 4000 || rng.Intn(3) > 0 { // grow first, then churn
				ref := itemRef{vpn: pagetable.VPN(rng.Uint64()) & pagetable.MaxVPN, npages: int32(1 + rng.Intn(arenaPages)), class: int8(rng.Intn(len(classSizes)+1) - 1)}
				x.put(hash(k), k, ref)
				model[k] = ref
			} else {
				got, ok := x.del(hash(k), k)
				if want, in := model[k]; ok != in || got != want {
					t.Fatalf("seed %d step %d: del(%d) = %+v, %v; model %+v, %v", seed, step, k, got, ok, want, in)
				}
				delete(model, k)
			}
			if step%500 == 0 {
				checkIndex(t, &x, model, keys)
			}
		}
		checkIndex(t, &x, model, keys)
		for _, k := range keys { // drain: backward shift must leave nothing behind
			x.del(hash(k), k)
			delete(model, k)
		}
		checkIndex(t, &x, model, keys)
	}
}

// TestPackRoundTrip packs references at the bounds of every field: the
// highest mappable VPN, a whole-arena item, and both end classes.
func TestPackRoundTrip(t *testing.T) {
	for _, ref := range []itemRef{
		{vpn: 0, npages: 1, class: -1},
		{vpn: pagetable.MaxVPN, npages: arenaPages, class: -1},
		{vpn: pagetable.MaxVPN, npages: 1, class: int8(len(classSizes) - 1)},
		{vpn: 1, npages: arenaPages, class: 0},
		{vpn: pagetable.MaxVPN - 1, npages: arenaPages - 1, class: 6},
	} {
		w := pack(ref)
		if w == 0 {
			t.Fatalf("%+v packs to the empty word", ref)
		}
		if got := unpack(w); got != ref {
			t.Fatalf("%+v packs to %#x, which unpacks to %+v", ref, w, got)
		}
	}
}

// TestPackRejectsOutOfRange: a reference with a field the word cannot hold
// panics rather than truncating into another item's pages.
func TestPackRejectsOutOfRange(t *testing.T) {
	for _, ref := range []itemRef{
		{vpn: pagetable.MaxVPN + 1, npages: 1, class: 0},
		{vpn: 1 << 32, npages: 1, class: 0},
		{vpn: 1, npages: 0, class: 0},
		{vpn: 1, npages: -1, class: -1},
		{vpn: 1, npages: arenaPages + 1, class: -1},
		{vpn: 1, npages: 1, class: -2},
		{vpn: 1, npages: 1, class: int8(len(classSizes))},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("pack(%+v) did not panic", ref)
				}
			}()
			pack(ref)
		}()
	}
}

// FuzzIndexOps decodes put/get/del sequences from bytes and runs them against
// a map over a collision chain that includes key 0, checking the whole table
// after every operation. Each operation takes three bytes: the operation and
// key, then two that vary the reference.
func FuzzIndexOps(f *testing.F) {
	keys := collidingKeys(24, 10)
	keys = append(keys, 1, 2, 3, 1<<63, ^uint64(0))
	f.Add([]byte{0, 0, 1, 3, 1, 2, 6, 2, 3})
	f.Add(bytes.Repeat([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 40))
	f.Fuzz(func(t *testing.T, ops []byte) {
		x := newIndex(0)
		model := map[uint64]itemRef{}
		for len(ops) >= 3 {
			op, a, b := ops[0], ops[1], ops[2]
			ops = ops[3:]
			k := keys[int(op>>2)%len(keys)]
			switch op & 3 {
			case 0, 1:
				ref := itemRef{
					vpn:    pagetable.MaxVPN - pagetable.VPN(a)<<8 - pagetable.VPN(b),
					npages: int32(b)<<12 | 1,
					class:  int8(int(a)%(len(classSizes)+1) - 1),
				}
				x.put(hash(k), k, ref)
				model[k] = ref
			case 2:
				got, ok := x.del(hash(k), k)
				if want, in := model[k]; ok != in || got != want {
					t.Fatalf("del(%d) = %+v, %v; model %+v, %v", k, got, ok, want, in)
				}
				delete(model, k)
			case 3:
				w := x.get(hash(k), k)
				if want, in := model[k]; (w != 0) != in || in && unpack(w) != want {
					t.Fatalf("get(%d) = %#x; model %+v, %v", k, w, want, in)
				}
			}
			checkIndex(t, &x, model, keys)
		}
	})
}

// TestStoreIndexFootprint pins the index's size at the benchmark's ycsb-a
// scale: 24 000 records fit in 32 768 slots of 16 bytes.
func TestStoreIndexFootprint(t *testing.T) {
	const records = 24_000
	_, s := newStore(records)
	for k := uint64(0); k < records; k++ {
		s.Insert(k, 64)
	}
	if s.Items() != records {
		t.Fatalf("store holds %d items, want %d", s.Items(), records)
	}
	if n := len(s.items.slots); n > 32_768 {
		t.Fatalf("index has %d slots for %d items, want at most 32 768", n, records)
	}
	if sz := unsafe.Sizeof(slot{}); sz != 16 {
		t.Fatalf("slot is %d bytes, want 16", sz)
	}
}

// TestIndexCollisionChainWraps deletes from the middle of a probe run that
// wraps past the last slot, the case backward-shift deletion gets wrong when
// its cyclic comparison is off by one.
func TestIndexCollisionChainWraps(t *testing.T) {
	x := newIndex(0)
	last := uint64(len(x.slots) - 1)
	var keys []uint64
	for k := uint64(0); len(keys) < 6; k++ { // all at home in the last two slots
		if h := hash(k) & last; h >= last-1 {
			keys = append(keys, k)
		}
	}
	for drop := range keys {
		x = newIndex(0)
		model := map[uint64]itemRef{}
		for _, k := range keys {
			ref := itemRef{vpn: pagetable.VPN(k), npages: 1}
			x.put(hash(k), k, ref)
			model[k] = ref
		}
		x.del(hash(keys[drop]), keys[drop])
		delete(model, keys[drop])
		checkIndex(t, &x, model, keys)
	}
}

// mapSnapshotItems is the item-table section as the map-backed store wrote
// it: the count, then every item in key order.
func mapSnapshotItems(items map[uint64]itemRef) []byte {
	enc := snapcodec.NewEncoder()
	keys := make([]uint64, 0, len(items))
	for k := range items {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	enc.Int(len(keys))
	for _, k := range keys {
		ref := items[k]
		enc.U64(k)
		enc.U64(uint64(ref.vpn))
		enc.I64(int64(ref.npages))
		enc.I64(int64(ref.class))
	}
	return enc.Bytes()
}

// storeHistory applies a seeded mix of operations and returns the store with
// a map of what it must hold.
func storeHistory(seed uint64, ops int) (*Store, map[uint64]itemRef) {
	_, s := newStore(1000)
	rng := sim.NewRNG(seed)
	model := map[uint64]itemRef{}
	for i := 0; i < ops; i++ {
		key := uint64(rng.Intn(300))
		size := 1 + rng.Intn(6000)
		switch rng.Intn(5) {
		case 0:
			s.Insert(key, size)
		case 1, 2:
			s.Set(key, size)
		case 3:
			s.Delete(key)
			delete(model, key)
			continue
		default:
			s.Get(key)
			continue
		}
		model[key] = itemOf(s, key)
	}
	return s, model
}

// TestSnapshotBytesMatchMapEncoder holds the checkpoint format still: the
// index writes its items exactly as the map did, and a restored store writes
// the same bytes again.
func TestSnapshotBytesMatchMapEncoder(t *testing.T) {
	s, model := storeHistory(3, 5000)
	if len(model) < 100 || s.Items() != len(model) {
		t.Fatalf("history left %d items in the store, %d in the model", s.Items(), len(model))
	}
	snap := storeBytes(s)
	const statsBytes = 9 * 8
	items := mapSnapshotItems(model)
	if tail := snap[:len(snap)-statsBytes]; !bytes.HasSuffix(tail, items) {
		t.Fatal("item table bytes differ from the map-backed encoding")
	}

	_, fresh := newStore(1000)
	c := snapcodec.NewReader(snap)
	if err := fresh.Checkpoint(c); err != nil {
		t.Fatal(err)
	}
	if err := c.Finish(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(storeBytes(fresh), snap) {
		t.Fatal("restored store snapshots differently")
	}
	for k, want := range model {
		if got := itemOf(fresh, k); got != want {
			t.Fatalf("restored key %d → %+v, want %+v", k, got, want)
		}
	}
}

// storeBytes is the store's checkpoint.
func storeBytes(s *Store) []byte {
	c := snapcodec.NewWriter()
	if err := s.Checkpoint(c); err != nil {
		panic(err)
	}
	return c.Bytes()
}

// FuzzStoreRestore feeds Checkpoint arbitrary payloads: it must reject with
// an error or accept, never panic or size a table from an unchecked length,
// and an accepted item table must be a well-formed index.
func FuzzStoreRestore(f *testing.F) {
	s, _ := storeHistory(5, 60)
	good := storeBytes(s)
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte{})
	for _, at := range []int{8, 56, 64, len(good) - 80, len(good) - 100} {
		bad := append([]byte(nil), good...)
		bad[at] ^= 0xff
		f.Add(bad)
	}
	// The last item's VPN moved past the carved arena, out of what a packed
	// reference holds: decoding must refuse it before the index packs it.
	const statsBytes, itemBytes = 9 * 8, 32
	far := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(far[len(far)-statsBytes-itemBytes+8:], 1<<32)
	_, fresh := newStore(1000)
	if err := fresh.Checkpoint(snapcodec.NewReader(far)); err == nil || !strings.Contains(err.Error(), "invalid layout") {
		f.Fatalf("an item at VPN 2^32 decoded with error %v", err)
	}
	f.Add(far)
	f.Fuzz(func(t *testing.T, payload []byte) {
		_, fresh := newStore(1000)
		if err := fresh.Checkpoint(snapcodec.NewReader(payload)); err != nil {
			return
		}
		model := map[uint64]itemRef{}
		var keys []uint64
		for _, sl := range fresh.items.slots {
			if sl.ref != 0 {
				model[sl.key] = unpack(sl.ref)
				keys = append(keys, sl.key)
			}
		}
		checkIndex(t, &fresh.items, model, keys)
	})
}
