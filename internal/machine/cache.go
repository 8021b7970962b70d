package machine

import "multiclock/internal/mem"

// pageCache is a small fully-associative LRU of recently-touched 4 KiB
// frames, modelling the CPU cache hierarchy's reach at page granularity.
// It filters the latency charged for accesses — hits cost Lat.CacheHit —
// without hiding them from the paging hardware (the PTE accessed bit is
// still set, as the TLB fill does on real machines). Compound (huge) pages
// are cached per covered base frame, not per descriptor: a 2 MiB page does
// not fit in the cache just because its descriptor was seen.
//
// The cache sits on the access fast path, so it is allocation-free after
// construction: nodes live in a fixed slab, the LRU list links slot
// indexes, and a base page's slot is found through Page.CacheHint in O(1)
// with no map. Only sub-frames of compound pages (sub != 0) — which have no
// per-frame descriptor to carry a hint — fall back to a small map, keyed by
// page so invalidation only ever visits the page's own residency: a base
// page's Invalidate must stay O(1) no matter how many compound frames other
// pages have cached.
type pageCache struct {
	cap   int
	nodes []cacheNode
	free  []int32 // unused slab slots
	sub   map[*mem.Page]map[int32]int32
	head  int32 // most recently used; -1 when empty
	tail  int32

	Hits, Misses int64
}

// cacheKey identifies one base-frame-sized unit.
type cacheKey struct {
	pg  *mem.Page
	sub int32 // base-frame index within a compound page; 0 for base pages
}

// cacheNode is one slab slot on the LRU list; prev/next are slot indexes,
// -1 terminated.
type cacheNode struct {
	key        cacheKey
	prev, next int32
}

func newPageCache(capacity int) *pageCache {
	c := &pageCache{
		cap:   capacity,
		nodes: make([]cacheNode, capacity),
		free:  make([]int32, 0, capacity),
		head:  -1,
		tail:  -1,
	}
	for i := capacity - 1; i >= 0; i-- {
		c.free = append(c.free, int32(i))
	}
	return c
}

// Touch records an access that Machine.AccessN does not serve in line, and
// reports a hit: a base frame that is not cached (pg.CacheHint is zero), or
// a compound page's sub-frame, cached or not. A cached base frame's hit is
// AccessN's alone.
func (c *pageCache) Touch(pg *mem.Page, sub int32) bool {
	if sub != 0 {
		if idx, ok := c.sub[pg][sub]; ok {
			c.Hits++
			c.moveToFront(idx)
			return true
		}
	}
	c.Misses++
	var idx int32
	if n := len(c.free); n > 0 {
		idx = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		// Full: reuse the least-recently-used slot.
		idx = c.tail
		c.unlink(idx)
		c.dropKey(c.nodes[idx].key)
	}
	c.nodes[idx].key = cacheKey{pg, sub}
	c.pushFront(idx)
	if sub == 0 {
		pg.CacheHint = idx + 1
	} else {
		if c.sub == nil {
			c.sub = make(map[*mem.Page]map[int32]int32, c.cap)
		}
		frames := c.sub[pg]
		if frames == nil {
			frames = make(map[int32]int32, 4)
			c.sub[pg] = frames
		}
		frames[sub] = idx
	}
	return false
}

// Invalidate drops every cached frame of the page (migration or free).
func (c *pageCache) Invalidate(pg *mem.Page) {
	if idx := pg.CacheHint - 1; idx >= 0 {
		c.release(idx)
	}
	// Only this page's compound residency is visited (release prunes the
	// entries as it goes); pages with none pay nothing.
	for _, idx := range c.sub[pg] {
		c.release(idx)
	}
}

// release unlinks a slot, clears its reverse index, and returns it to the
// free list.
func (c *pageCache) release(idx int32) {
	c.unlink(idx)
	c.dropKey(c.nodes[idx].key)
	c.nodes[idx].key = cacheKey{}
	c.free = append(c.free, idx)
}

// dropKey clears the reverse index entry (hint or sub map) for a key whose
// slot is being evicted or released.
func (c *pageCache) dropKey(k cacheKey) {
	if k.sub == 0 {
		k.pg.CacheHint = 0
	} else if frames := c.sub[k.pg]; frames != nil {
		delete(frames, k.sub)
		if len(frames) == 0 {
			delete(c.sub, k.pg)
		}
	}
}

func (c *pageCache) pushFront(idx int32) {
	n := &c.nodes[idx]
	n.prev = -1
	n.next = c.head
	if c.head >= 0 {
		c.nodes[c.head].prev = idx
	} else {
		c.tail = idx
	}
	c.head = idx
}

// unlink takes a slot off the list, leaving its own links stale: every caller
// either pushes it straight back or frees it.
func (c *pageCache) unlink(idx int32) {
	n := &c.nodes[idx]
	if n.prev >= 0 {
		c.nodes[n.prev].next = n.next
	} else {
		c.head = n.next
	}
	if n.next >= 0 {
		c.nodes[n.next].prev = n.prev
	} else {
		c.tail = n.prev
	}
}

func (c *pageCache) moveToFront(idx int32) {
	if c.head == idx {
		return
	}
	c.unlink(idx)
	c.pushFront(idx)
}
