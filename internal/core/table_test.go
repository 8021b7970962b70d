package core

import (
	"strings"
	"testing"

	"multiclock/internal/fault"
	"multiclock/internal/machine"
	"multiclock/internal/mem"
	"multiclock/internal/pagetable"
	"multiclock/internal/sim"
	"multiclock/internal/snapcodec"
)

// retryWatch wraps a MULTI-CLOCK policy and checks, at every death of a page
// with a retry entry, that a restore's zombie for it reads as having none,
// and at every birth, that the newborn inherits no entry and that the table
// holds no more entries than live pages. It sees births as an attached
// observer (a minor fault's OnFault).
type retryWatch struct {
	*MultiClock
	t       *testing.T
	as      *pagetable.AddressSpace
	tracked map[*mem.Page]bool // descriptors whose last tenant died with an entry
	births  int64
	reused  int // births into such a descriptor
	peak    int // most entries seen at a birth
}

func (w *retryWatch) PageFreed(pg *mem.Page) {
	if w.retries.Get(pg) != nil {
		w.tracked[pg] = true
		if zombie := machine.NewPageRegistry().Resolve(pg.Seq); w.retries.Get(zombie) != nil {
			w.t.Fatalf("a zombie descriptor for seq %d reads its page's retry entry", pg.Seq)
		}
	}
	w.MultiClock.PageFreed(pg)
}

func (*retryWatch) OnAccess(*mem.Page, bool, sim.Time)                    {}
func (*retryWatch) OnMigrate(*mem.Page, mem.NodeID, mem.NodeID, sim.Time) {}

func (w *retryWatch) OnFault(pg *mem.Page, hint bool, _ sim.Time) {
	if hint {
		return
	}
	w.births++
	if w.tracked[pg] {
		w.reused++
		delete(w.tracked, pg)
	}
	if w.retries.Get(pg) != nil {
		w.t.Fatalf("seq %d found its descriptor's previous retry entry", pg.Seq)
	}
	if n, live := w.retries.Len(), w.as.Mapped(); n > live {
		w.t.Fatalf("retry table holds %d entries for %d live pages", n, live)
	} else {
		w.peak = max(w.peak, n)
	}
}

// TestPerPageTablesForgetDeadPages churns an oversubscribed machine under a
// fault campaign that fails a third of all migrations, so retry entries are
// made constantly and pages die holding them: a table that kept an entry past
// its page's death would hand the dead page's retry budget to the next page
// born into its descriptor. The policy package checks its own tables the same
// way.
func TestPerPageTablesForgetDeadPages(t *testing.T) {
	fcfg := fault.Config{Seed: 7}
	fcfg.Rates[fault.MigratePinned] = 0.3
	w := &retryWatch{MultiClock: New(Config{ScanInterval: 100 * sim.Microsecond}), t: t, tracked: make(map[*mem.Page]bool)}
	mcfg := machine.DefaultConfig()
	mcfg.Mem.DRAMNodes = []int{32}
	mcfg.Mem.PMNodes = []int{96}
	mcfg.OpCost = 0
	mcfg.CPUCachePages = 0
	mcfg.Faults = fcfg
	m := machine.New(mcfg, w)
	m.Attach(w)
	w.as = m.NewSpace()
	v := w.as.Mmap(384, false, "churn")
	rng := sim.NewRNG(11)
	for i := 0; i < 40000; i++ {
		vpn := v.Start + pagetable.VPN(rng.Intn(384))
		if i%2 == 0 {
			vpn = v.Start + (vpn-v.Start)%48
		}
		if i%97 == 0 {
			m.Unmap(w.as, vpn)
			continue
		}
		m.Access(w.as, vpn, i%5 == 0)
	}
	if w.births != m.Mem.Counters.MinorFaults {
		t.Fatalf("observer saw %d births, machine counted %d minor faults", w.births, m.Mem.Counters.MinorFaults)
	}
	if w.reused == 0 || w.peak == 0 {
		t.Fatalf("no descriptor of a page that died with a retry entry was reused (at most %d entries, %d requeues)",
			w.peak, w.PromoteRequeues+w.DemoteRequeues)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d births into a descriptor whose last page died with a retry entry; at most %d entries", w.reused, w.peak)
}

// TestPerPageTablesRejectBadSeqs decodes the retry table against a registry
// of live pages: a Seq nobody was born under, a page that died before the
// snapshot and a repeated page are each an error, never an entry; and a
// snapshot with entries does not restore into a policy that keeps no table.
func TestPerPageTablesRejectBadSeqs(t *testing.T) {
	fcfg := fault.Config{Seed: 1}
	fcfg.Rates[fault.MigratePinned] = 0.5
	for _, c := range []struct {
		seqs   func(live, dead uint64) []uint64
		faults bool
		want   string // "" decodes
	}{
		{func(live, _ uint64) []uint64 { return []uint64{live, live + 1} }, true, ""},
		{func(live, _ uint64) []uint64 { return []uint64{live, 1 << 40} }, true, "unknown or repeated"},
		{func(_, dead uint64) []uint64 { return []uint64{dead} }, true, "unknown or repeated"},
		{func(live, _ uint64) []uint64 { return []uint64{live, live} }, true, "unknown or repeated"},
		{func(live, _ uint64) []uint64 { return []uint64{live} }, false, "table is off"},
	} {
		var m *machine.Machine
		var mc *MultiClock
		if c.faults {
			m, mc = testChaosMachine(64, 256, DefaultConfig(), fcfg)
		} else {
			m, mc = testMachine(64, 256, DefaultConfig())
		}
		reg := machine.NewPageRegistry()
		var live, dead uint64
		for i := 0; i < 8; i++ {
			pg := m.Mem.Alloc(m.Mem.BirthOrder())
			switch i {
			case 0:
				dead = pg.Seq
				m.Mem.Free(pg)
				continue
			case 1:
				live = pg.Seq
			}
			if err := reg.AddLive(pg); err != nil {
				t.Fatal(err)
			}
		}
		seqs := c.seqs(live, dead)

		// The section opens with the table switch and the table.
		w := snapcodec.NewWriter()
		if err := mc.Checkpoint(w, nil); err != nil {
			t.Fatal(err)
		}
		b := w.Bytes()
		table := snapcodec.NewEncoder()
		table.Bool(c.faults)
		table.I64(int64(len(seqs)))
		for _, seq := range seqs {
			table.U64(seq)
			for i := 0; i < 1+1+8; i++ {
				table.U8(0)
			}
		}
		err := mc.Checkpoint(snapcodec.NewReader(append(table.Bytes(), b[1+8:]...)), reg)
		switch {
		case c.want == "" && (err != nil || mc.retries.Len() != len(seqs)):
			t.Errorf("seqs %v: err %v, %d entries; want %d entries", seqs, err, mc.retries.Len(), len(seqs))
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("seqs %v (faults %v): err %v, want %q", seqs, c.faults, err, c.want)
		}
	}
}
