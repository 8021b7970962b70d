package policy

import (
	"strings"
	"testing"

	"multiclock/internal/machine"
	"multiclock/internal/mem"
	"multiclock/internal/sim"
	"multiclock/internal/snapcodec"
)

// TestPerPageTablesRejectBadSeqs decodes every per-page side table of this
// package against a registry of live pages: an entry may name only a live
// page, and only once. A Seq nobody was born under, a page that died before
// the snapshot and a repeated page are each an error, never a panic and
// never an entry. MULTI-CLOCK's retry table has the same check in package
// core; a shadow location rides its page's record.
func TestPerPageTablesRejectBadSeqs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fresh func() machine.Policy
		value int  // bytes of one entry's value
		first bool // the table opens the policy's section (else it closes it)
		size  func(machine.Policy) int
	}{
		{"amp-lfu", func() machine.Policy { return NewAMP(AMPLFU, sim.Second) }, 4 + 8, false,
			func(p machine.Policy) int { return p.(*AMP).prof.Len() }},
		{"at-opm", func() machine.Policy { return NewAutoTiering(OPM, sim.Second) }, 8, false,
			func(p machine.Policy) int { return p.(*AutoTiering).lastHint.Len() }},
		{"s3fifo", func() machine.Policy { return NewS3FIFO(sim.Second) }, 1, true,
			func(p machine.Policy) int { return p.(*S3FIFO).state.Len() }},
		{"nomad", func() machine.Policy { return NewNomad(sim.Second) }, 1, true,
			func(p machine.Policy) int { return p.(*Nomad).inflight.Len() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, c := range []struct {
				seqs func(live, dead uint64) []uint64
				want string // "" decodes
			}{
				{func(live, _ uint64) []uint64 { return []uint64{live, live + 1} }, ""},
				{func(live, _ uint64) []uint64 { return []uint64{live, 1 << 40} }, "unknown or repeated"},
				{func(_, dead uint64) []uint64 { return []uint64{dead} }, "unknown or repeated"},
				{func(live, _ uint64) []uint64 { return []uint64{live, live} }, "unknown or repeated"},
			} {
				p := tc.fresh()
				m := newMachine(64, 256, p)
				reg, live, dead := livePages(t, m.Mem, 8)
				seqs := c.seqs(live, dead)
				err := p.Checkpoint(snapcodec.NewReader(withTable(t, p, seqs, tc.value, tc.first)), reg)
				switch {
				case c.want == "" && (err != nil || tc.size(p) != len(seqs)):
					t.Errorf("seqs %v: err %v, %d entries; want %d entries", seqs, err, tc.size(p), len(seqs))
				case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
					t.Errorf("seqs %v: err %v, want %q", seqs, err, c.want)
				}
			}
		})
	}
}

// livePages allocates n pages of s and frees the first: it returns a
// registry of the n-1 that live, the Seq of the first of them and the dead
// page's Seq.
func livePages(t *testing.T, s *mem.System, n int) (reg *machine.PageRegistry, live, dead uint64) {
	t.Helper()
	reg = machine.NewPageRegistry()
	for i := 0; i < n; i++ {
		pg := s.Alloc(s.BirthOrder())
		if i == 0 {
			dead = pg.Seq
			s.Free(pg)
			continue
		}
		if i == 1 {
			live = pg.Seq
		}
		if err := reg.AddLive(pg); err != nil {
			t.Fatal(err)
		}
	}
	return reg, live, dead
}

// withTable returns p's checkpoint — p's per-page table empty, so its count
// is zero — with that count, the section's first or last eight bytes,
// replaced by a table naming seqs, each with a zero value of the given width.
func withTable(t *testing.T, p machine.Checkpointer, seqs []uint64, value int, first bool) []byte {
	t.Helper()
	w := snapcodec.NewWriter()
	if err := p.Checkpoint(w, nil); err != nil {
		t.Fatal(err)
	}
	b := w.Bytes()
	table := snapcodec.NewEncoder()
	table.I64(int64(len(seqs)))
	for _, seq := range seqs {
		table.U64(seq)
		for i := 0; i < value; i++ {
			table.U8(0)
		}
	}
	if first {
		return append(table.Bytes(), b[8:]...)
	}
	return append(append([]byte(nil), b[:len(b)-8]...), table.Bytes()...)
}
