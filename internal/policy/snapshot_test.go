package policy

import (
	"strings"
	"testing"

	"multiclock/internal/machine"
	"multiclock/internal/mem"
	"multiclock/internal/pagetable"
	"multiclock/internal/sim"
	"multiclock/internal/snapcodec"
)

// TestPerPageTablesRejectBadSeqs decodes AMP's and AutoTiering's per-page
// tables against a registry of live pages: an entry may name only a live
// page, and only once. A Seq nobody was born under, a page that died before
// the snapshot and a repeated page are each an error, never a panic and
// never an entry.
func TestPerPageTablesRejectBadSeqs(t *testing.T) {
	m := newMachine(64, 256, NewStatic())
	as := m.NewSpace()
	v := fillOver(m, as, 8)
	dead := as.Lookup(v.Start).Seq
	m.Unmap(as, v.Start)
	reg := machine.NewPageRegistry()
	as.Walk(v.Start, v.End, func(_ pagetable.VPN, pg *mem.Page) {
		if err := reg.AddLive(pg); err != nil {
			t.Fatal(err)
		}
	})
	live := as.Lookup(v.Start + 1).Seq

	for _, tc := range []struct {
		name  string
		fresh func() machine.Checkpointer
		value int // bytes of one entry's value
		size  func(machine.Checkpointer) int
	}{
		{"amp-lfu", func() machine.Checkpointer { return NewAMP(AMPLFU, sim.Second) }, 4 + 8,
			func(p machine.Checkpointer) int { return len(p.(*AMP).prof) }},
		{"at-opm", func() machine.Checkpointer { return NewAutoTiering(OPM, sim.Second) }, 8,
			func(p machine.Checkpointer) int { return len(p.(*AutoTiering).lastHint) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, c := range []struct {
				seqs []uint64
				want string // "" decodes
			}{
				{[]uint64{live, live + 1}, ""},
				{[]uint64{live, 1 << 40}, "unknown or repeated"},
				{[]uint64{dead}, "unknown or repeated"},
				{[]uint64{live, live}, "unknown or repeated"},
			} {
				p := tc.fresh()
				err := p.Checkpoint(snapcodec.NewReader(withTable(t, tc.fresh(), c.seqs, tc.value)), reg)
				switch {
				case c.want == "" && (err != nil || tc.size(p) != len(c.seqs)):
					t.Errorf("seqs %v: err %v, %d entries; want %d entries", c.seqs, err, tc.size(p), len(c.seqs))
				case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
					t.Errorf("seqs %v: err %v, want %q", c.seqs, err, c.want)
				}
			}
		})
	}
}

// withTable returns p's checkpoint — p's per-page table empty, so it ends in
// the table's zero count — with that count replaced by a table naming seqs,
// each with a zero value of the given width.
func withTable(t *testing.T, p machine.Checkpointer, seqs []uint64, value int) []byte {
	t.Helper()
	w := snapcodec.NewWriter()
	if err := p.Checkpoint(w, nil); err != nil {
		t.Fatal(err)
	}
	b := w.Bytes()
	out := append([]byte(nil), b[:len(b)-8]...)
	tail := snapcodec.NewEncoder()
	tail.I64(int64(len(seqs)))
	for _, seq := range seqs {
		tail.U64(seq)
		for i := 0; i < value; i++ {
			tail.U8(0)
		}
	}
	return append(out, tail.Bytes()...)
}
