package mem

import (
	"testing"

	"multiclock/internal/snapcodec"
)

// TestSideEntriesDieWithTheirPage pins what a side table reports for each
// kind of descriptor: a live page has the entry written under its Seq; a
// freed page, the page reborn into its descriptor, a descriptor no System
// issued and a zombie carrying a live page's Seq have none.
func TestSideEntriesDieWithTheirPage(t *testing.T) {
	s := testSystem(100, 400)
	side := NewSide[int](s)
	a, b := s.Alloc(DefaultOrder()), s.Alloc(DefaultOrder())
	*side.Put(a), *side.Put(b) = 1, 2
	if side.Value(a) != 1 || side.Value(b) != 2 || side.Len() != 2 {
		t.Fatalf("entries %d %d, %d in all; want 1 2, 2", side.Value(a), side.Value(b), side.Len())
	}
	for name, pg := range map[string]*Page{
		"free-standing": {},
		"zombie":        {Seq: b.Seq, Node: NoNode, Frame: NoFrame, Space: -1},
		"same seq":      {Seq: b.Seq, Node: b.Node},
	} {
		if side.Get(pg) != nil {
			t.Errorf("a %s descriptor reads an entry", name)
		}
	}
	var none *Side[int]
	if none.Get(a) != nil || none.Value(a) != 0 || none.Len() != 0 {
		t.Error("a nil table reads an entry")
	}

	s.Free(a)
	if side.Get(a) != nil || side.Len() != 1 {
		t.Fatal("a freed page still reads its entry")
	}
	c := s.Alloc(DefaultOrder())
	if c != a {
		t.Fatal("setup: the next birth did not reuse the freed descriptor")
	}
	if side.Get(c) != nil {
		t.Fatal("the reborn descriptor inherited its last page's entry")
	}
	*side.Put(c) = 3
	side.Delete(b)
	if side.Get(b) != nil || side.Value(c) != 3 || side.Len() != 1 {
		t.Fatal("Delete dropped the wrong entry")
	}
}

// TestSideCheckpointsInSeqOrder checks that the table is written in Seq
// order, not slot order (the reborn page sits in the first slot with the
// latest Seq), and reads back entry for entry.
func TestSideCheckpointsInSeqOrder(t *testing.T) {
	s := testSystem(100, 400)
	side := NewSide[uint64](s)
	x := s.Alloc(DefaultOrder())
	y := s.Alloc(DefaultOrder())
	s.Free(x)
	z := s.Alloc(DefaultOrder()) // x's slot, the newest Seq
	live := map[uint64]*Page{}
	for _, pg := range []*Page{y, z} {
		*side.Put(pg) = 100 + pg.Seq
		live[pg.Seq] = pg
	}
	w := snapcodec.NewWriter()
	if err := side.Checkpoint(w, nil, "test", func(v *uint64) { snapcodec.U64(w, v) }); err != nil {
		t.Fatal(err)
	}
	want := snapcodec.NewEncoder()
	want.I64(2)
	for _, pg := range []*Page{y, z} {
		want.U64(pg.Seq)
		want.U64(100 + pg.Seq)
	}
	if string(w.Bytes()) != string(want.Bytes()) {
		t.Fatalf("checkpoint %x, want %x (Seq order)", w.Bytes(), want.Bytes())
	}

	back := NewSide[uint64](s)
	r := snapcodec.NewReader(w.Bytes())
	err := back.Checkpoint(r, func(seq uint64) (*Page, bool) { pg, ok := live[seq]; return pg, ok }, "test",
		func(v *uint64) { snapcodec.U64(r, v) })
	if err != nil || back.Value(y) != 100+y.Seq || back.Value(z) != 100+z.Seq || back.Len() != 2 {
		t.Fatalf("read back: err %v, entries %d %d", err, back.Value(y), back.Value(z))
	}
}
