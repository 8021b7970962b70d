// Package kvstore implements a memcached-like in-memory key-value store
// whose memory lives on the simulated machine: a paged hash table plus a
// slab allocator, with every operation issuing the page accesses the real
// server would (bucket probe, item read/write). It is the YCSB back-end of
// the evaluation (§V-B), including memcached's lack of SCAN support that
// makes workload E non-operational.
package kvstore

import (
	"errors"
	"fmt"

	"multiclock/internal/machine"
	"multiclock/internal/mem"
	"multiclock/internal/pagetable"
)

// ErrNoScan reports that SCAN is not implemented, exactly like memcached.
var ErrNoScan = errors.New("kvstore: SCAN operations are not supported by this back-end")

// bucketBytes is the size of one hash-bucket header in the table.
const bucketBytes = 64

// bucketsPerPage is how many bucket headers share a page.
const bucketsPerPage = mem.PageSize / bucketBytes

// arenaPages bounds the slab arena: 4 GiB of virtual reservation, its pages
// faulted on demand.
const arenaPages = 1 << 20

// chunk size classes, memcached-style powers of two. Items larger than the
// biggest class span whole pages.
var classSizes = [...]int{64, 128, 256, 512, 1024, 2048, 4096}

// Config sizes the store.
type Config struct {
	// Buckets is the number of hash buckets; rounded up to a full page.
	Buckets int
	// ItemTouches is how many cache-missing accesses reading or writing
	// one item page costs (copying a ~1 KiB value misses several lines).
	// Zero means 1.
	ItemTouches int
	// HugeArena backs the slab arena with transparent huge pages, the
	// configuration madvise(MADV_HUGEPAGE) would give a real memcached.
	// Tiering then operates at 2 MiB granularity over item memory.
	HugeArena bool
}

// DefaultConfig sizes the table for about n resident items.
func DefaultConfig(n int) Config {
	b := n / 4
	if b < bucketsPerPage {
		b = bucketsPerPage
	}
	return Config{Buckets: b, ItemTouches: 1}
}

type itemRef struct {
	vpn    pagetable.VPN
	npages int32
	class  int8
}

type slabClass struct {
	chunk   int
	perPage int
	free    []pagetable.VPN // one entry per free chunk, keyed by its page
	cur     pagetable.VPN   // current partial page, 0 = none
	curUsed int
}

// Stats counts store operations.
type Stats struct {
	Gets, GetHits   int64
	Sets, Inserts   int64
	Deletes, RMWs   int64
	ScanRejects     int64
	BytesStored     int64
	EvictedForSpace int64
}

// Store is the key-value store instance.
type Store struct {
	m  *machine.Machine
	as *pagetable.AddressSpace

	nbuckets  int
	bucketVMA *pagetable.VMA

	arena     *pagetable.VMA
	arenaNext pagetable.VPN

	classes     [len(classSizes)]slabClass
	items       index
	itemTouches int
	hugeArena   bool

	Stats Stats
}

// New creates a store with its own address space on m.
func New(m *machine.Machine, cfg Config) *Store {
	if cfg.Buckets <= 0 {
		cfg = DefaultConfig(1 << 16)
	}
	nbuckets := (cfg.Buckets + bucketsPerPage - 1) / bucketsPerPage * bucketsPerPage
	touches := cfg.ItemTouches
	if touches <= 0 {
		touches = 1
	}
	s := &Store{
		m:           m,
		as:          m.NewSpace(),
		nbuckets:    nbuckets,
		items:       newIndex(0),
		itemTouches: touches,
		hugeArena:   cfg.HugeArena,
	}
	s.bucketVMA = s.as.Mmap(nbuckets/bucketsPerPage, false, "hashtable")
	if cfg.HugeArena {
		s.arena = s.as.MmapHuge(arenaPages, "slab-arena")
	} else {
		s.arena = s.as.Mmap(arenaPages, false, "slab-arena")
	}
	s.arenaNext = s.arena.Start
	for i, sz := range classSizes {
		s.classes[i] = slabClass{chunk: sz, perPage: mem.PageSize / sz}
	}
	return s
}

// Space exposes the store's address space (for telemetry and tests).
func (s *Store) Space() *pagetable.AddressSpace { return s.as }

// Items returns the number of stored records.
func (s *Store) Items() int { return s.items.n }

// hash is splitmix64, well mixed for sequential keys.
func hash(key uint64) uint64 {
	z := key + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// bucketVPN returns the hash-table page holding the bucket of the key that
// hashes to h.
func (s *Store) bucketVPN(h uint64) pagetable.VPN {
	b := h % uint64(s.nbuckets)
	return s.bucketVMA.Start + pagetable.VPN(b/bucketsPerPage)
}

// classFor picks the smallest fitting size class, or -1 for page-spanning
// items.
func classFor(size int) int {
	for i, sz := range classSizes {
		if size <= sz {
			return i
		}
	}
	return -1
}

// allocItem carves space for one item and returns its reference.
func (s *Store) allocItem(size int) itemRef {
	ci := classFor(size)
	if ci < 0 {
		npages := (size + mem.PageSize - 1) / mem.PageSize
		ref := itemRef{vpn: s.arenaNext, npages: int32(npages), class: -1}
		s.arenaNext += pagetable.VPN(npages)
		s.checkArena()
		return ref
	}
	c := &s.classes[ci]
	if n := len(c.free); n > 0 {
		vpn := c.free[n-1]
		c.free = c.free[:n-1]
		return itemRef{vpn: vpn, npages: 1, class: int8(ci)}
	}
	if c.cur == 0 || c.curUsed >= c.perPage {
		c.cur = s.arenaNext
		s.arenaNext++
		s.checkArena()
		c.curUsed = 0
	}
	c.curUsed++
	return itemRef{vpn: c.cur, npages: 1, class: int8(ci)}
}

func (s *Store) checkArena() {
	if s.arenaNext >= s.arena.End {
		panic(fmt.Sprintf("kvstore: slab arena exhausted (%d pages)", s.arena.Pages()))
	}
}

// freeItem returns the item's space to its slab class. Page-spanning items
// release their pages back to the machine entirely — unless the arena is
// huge-backed, where unmapping base pages would tear whole regions out
// from under their neighbours; those pages stay resident like freed slab
// chunks do.
func (s *Store) freeItem(ref itemRef) {
	if ref.class < 0 {
		if !s.hugeArena {
			for i := pagetable.VPN(0); i < pagetable.VPN(ref.npages); i++ {
				s.m.Unmap(s.as, ref.vpn+i)
			}
		}
		return
	}
	c := &s.classes[ref.class]
	c.free = append(c.free, ref.vpn)
}

// touchItem performs the data accesses of reading or writing the item:
// itemTouches cache-line transfers per page of the item.
func (s *Store) touchItem(ref itemRef, write bool) {
	s.m.AccessRange(s.as, ref.vpn, int(ref.npages), write, s.itemTouches)
}

// Get looks the key up, touching the bucket page and, on a hit, the item's
// pages. Reports whether the key was present.
func (s *Store) Get(key uint64) bool {
	s.Stats.Gets++
	h := hash(key)
	s.m.Access(s.as, s.bucketVPN(h), false)
	w := s.items.get(h, key)
	if w == 0 {
		return false
	}
	s.Stats.GetHits++
	s.touchItem(unpack(w), false)
	return true
}

// Set stores a value of the given size under key, inserting if absent or
// overwriting in place when the size class still fits.
func (s *Store) Set(key uint64, size int) {
	s.Stats.Sets++
	h := hash(key)
	s.m.Access(s.as, s.bucketVPN(h), false)
	if w := s.items.get(h, key); w != 0 {
		ref := unpack(w)
		if fitsInPlace(ref, size) {
			s.touchItem(ref, true)
			return
		}
		s.freeItem(ref)
	}
	s.insertLocked(h, key, size)
}

// Insert adds a new record (YCSB insert). An existing key is overwritten.
func (s *Store) Insert(key uint64, size int) {
	s.Stats.Inserts++
	h := hash(key)
	s.m.Access(s.as, s.bucketVPN(h), true) // chain update
	if w := s.items.get(h, key); w != 0 {
		s.freeItem(unpack(w))
	}
	s.insertLocked(h, key, size)
}

func fitsInPlace(ref itemRef, size int) bool {
	if ref.class >= 0 {
		return size <= classSizes[ref.class]
	}
	return size <= int(ref.npages)*mem.PageSize
}

func (s *Store) insertLocked(h, key uint64, size int) {
	ref := s.allocItem(size)
	s.items.put(h, key, ref)
	s.Stats.BytesStored += int64(size)
	s.touchItem(ref, true)
}

// Delete removes the record, touching the bucket chain. Reports presence.
func (s *Store) Delete(key uint64) bool {
	s.Stats.Deletes++
	h := hash(key)
	s.m.Access(s.as, s.bucketVPN(h), true)
	ref, ok := s.items.del(h, key)
	if !ok {
		return false
	}
	s.freeItem(ref)
	return true
}

// ReadModifyWrite reads the record then writes it back (YCSB workload F).
// Reports whether the key existed.
func (s *Store) ReadModifyWrite(key uint64) bool {
	s.Stats.RMWs++
	h := hash(key)
	s.m.Access(s.as, s.bucketVPN(h), false)
	w := s.items.get(h, key)
	if w == 0 {
		return false
	}
	ref := unpack(w)
	s.touchItem(ref, false)
	s.touchItem(ref, true)
	return true
}

// Scan is unsupported: memcached has no range queries, which renders YCSB
// workload E non-operational (§V-B).
func (s *Store) Scan(startKey uint64, count int) error {
	s.Stats.ScanRejects++
	return ErrNoScan
}
