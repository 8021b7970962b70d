package mem

import (
	"fmt"
	"sort"
	"unsafe"

	"multiclock/internal/snapcodec"
)

// Side is a per-page side table, the simulator's page_ext: state a component
// keeps for some pages outside the one-line descriptor (DESIGN.md §8.1). It is
// indexed by the descriptor's slot in its System's slab, which survives Free
// and rebirth, and allocates a chunk of entries when a page of that slab
// chunk is first written. Each entry is stamped with the Seq it was written
// under, so only a live page carrying that Seq has it: a dead page, the next
// page born into its descriptor and a descriptor no System issued (a test's
// &Page{}, a restore's zombie) have none, and no owner needs a death path.
type Side[T any] struct {
	sys    *System
	chunks []*[descChunk]sideEntry[T]
}

type sideEntry[T any] struct {
	seq uint64 // Seq+1 of the page the entry was written under; 0 when empty
	v   T
}

// NewSide returns an empty table for the pages of s.
func NewSide[T any](s *System) *Side[T] { return &Side[T]{sys: s} }

// slot returns pg's slab chunk (-1 for a descriptor s did not issue) and its
// index there.
func (s *System) slot(pg *Page) (c int, i uintptr) {
	if c = int(pg.slab) - 1; c < 0 {
		return -1, 0
	}
	return c, (uintptr(unsafe.Pointer(pg)) - uintptr(unsafe.Pointer(s.slabs[c]))) / unsafe.Sizeof(Page{})
}

// Get returns pg's entry, or nil when it has none. A nil table has none.
func (t *Side[T]) Get(pg *Page) *T {
	if t == nil || pg.Node == NoNode {
		return nil
	}
	if c, i := t.sys.slot(pg); c >= 0 && c < len(t.chunks) && t.chunks[c] != nil && t.chunks[c][i].seq == pg.Seq+1 {
		return &t.chunks[c][i].v
	}
	return nil
}

// Value returns pg's entry, or the zero T when it has none.
func (t *Side[T]) Value(pg *Page) (v T) {
	if p := t.Get(pg); p != nil {
		v = *p
	}
	return v
}

// Put returns pg's entry, created zeroed when it has none. pg must be a live
// page of the table's System.
func (t *Side[T]) Put(pg *Page) *T {
	c, i := t.sys.slot(pg)
	if c < 0 {
		panic(fmt.Sprintf("mem: side-table entry for page %d, which no System issued", pg.Seq))
	}
	for len(t.chunks) <= c {
		t.chunks = append(t.chunks, nil)
	}
	if t.chunks[c] == nil {
		t.chunks[c] = new([descChunk]sideEntry[T])
	}
	if e := &t.chunks[c][i]; e.seq != pg.Seq+1 {
		*e = sideEntry[T]{seq: pg.Seq + 1}
	}
	return &t.chunks[c][i].v
}

// Delete drops pg's entry, if any.
func (t *Side[T]) Delete(pg *Page) {
	if t.Get(pg) != nil {
		c, i := t.sys.slot(pg)
		t.chunks[c][i] = sideEntry[T]{}
	}
}

// sideLive is one page with an entry, and the entry.
type sideLive[T any] struct {
	pg *Page
	v  *T
}

// live returns the pages with an entry and their entries in Seq order (slot
// order is host state).
func (t *Side[T]) live() (out []sideLive[T]) {
	for c := 0; t != nil && c < len(t.chunks); c++ {
		for i := 0; t.chunks[c] != nil && i < descChunk; i++ {
			if e, pg := &t.chunks[c][i], &t.sys.slabs[c][i]; e.seq != 0 && e.seq == pg.Seq+1 && pg.Node != NoNode {
				out = append(out, sideLive[T]{pg, &e.v})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pg.Seq < out[j].pg.Seq })
	return out
}

// Len returns the number of pages with an entry. It walks the table.
func (t *Side[T]) Len() int { return len(t.live()) }

// Checkpoint codes the table as a count and then, in Seq order, each page's
// Seq and value's coding of its entry; a table is only indexed during a run,
// so Seq order is behaviourally exact. Reading, the table is empty and live
// resolves a Seq to a restored page; a Seq that names no live page, or one
// already read, is an error naming the table as what. A nil table codes as
// empty and refuses entries.
func (t *Side[T]) Checkpoint(c *snapcodec.Codec, live func(seq uint64) (*Page, bool), what string, value func(*T)) error {
	all := t.live()
	n := len(all)
	snapcodec.I64(c, &n)
	if !c.Reading() {
		for _, e := range all {
			snapcodec.U64(c, &e.pg.Seq)
			value(e.v)
		}
		return c.Err()
	}
	if n != 0 && t == nil && c.Err() == nil {
		return fmt.Errorf("mem: snapshot has %d %s entries, the table is off", n, what)
	}
	for ; n > 0 && c.Err() == nil; n-- {
		var seq uint64
		var v T
		snapcodec.U64(c, &seq)
		if value(&v); c.Err() != nil {
			break
		}
		pg, ok := live(seq)
		if !ok || t.Get(pg) != nil {
			return fmt.Errorf("mem: snapshot %s names page %d, which is unknown or repeated", what, seq)
		}
		*t.Put(pg) = v
	}
	return c.Err()
}
