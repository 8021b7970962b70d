package bench

import (
	"testing"

	"multiclock/internal/fault"
	"multiclock/internal/kvstore"
	"multiclock/internal/lru"
	"multiclock/internal/machine"
	"multiclock/internal/mem"
	"multiclock/internal/pagetable"
	"multiclock/internal/runner"
	"multiclock/internal/sim"
	"multiclock/internal/ycsb"
)

// countingObserver tallies events and optionally mutates the machine's
// attachment set from inside its own callbacks.
type countingObserver struct {
	accesses int64
	onAccess func(n int64)
}

func (o *countingObserver) OnAccess(pg *mem.Page, write bool, now sim.Time) {
	o.accesses++
	if o.onAccess != nil {
		o.onAccess(o.accesses)
	}
}
func (o *countingObserver) OnMigrate(pg *mem.Page, from, to mem.NodeID, now sim.Time) {}
func (o *countingObserver) OnFault(pg *mem.Page, hint bool, now sim.Time)             {}

// soakScale is a small grid that still faults, migrates, and swaps.
func soakScale() scale {
	return scale{RunConfig: RunConfig{
		DRAMPages: 256, PMPages: 1024, Records: 2000, Ops: 20_000,
		Interval: 10 * sim.Millisecond,
	}}
}

// TestAttachDetachAroundRunningWorkloads exercises observer churn around
// live workloads on many machines at once. Run under -race it proves
// machines share no attachment state; on each machine it pins the
// dispatch-snapshot semantics — an observer can detach itself or attach a
// new observer from inside OnAccess without corrupting the fan-out.
func TestAttachDetachAroundRunningWorkloads(t *testing.T) {
	sc := soakScale()
	type cell struct{ steady, late int64 }
	outs := runner.Map(4, []uint64{1, 2, 3, 4}, func(i int, seed uint64) cell {
		p, err := NewPolicy("multiclock", sc.Interval)
		if err != nil {
			t.Error(err)
			return cell{}
		}
		defer stopDaemons(p)
		seeded := sc
		seeded.Seed = seed
		m := seeded.machineWith(p)

		steady := &countingObserver{}
		m.Attach(steady)

		// Detaches itself mid-dispatch after 100 events.
		var detachSelf func()
		self := &countingObserver{}
		self.onAccess = func(n int64) {
			if n == 100 {
				detachSelf()
			}
		}
		detachSelf = m.Attach(self)

		// Attaches a fresh observer mid-dispatch at event 50.
		late := &countingObserver{}
		adder := &countingObserver{}
		adder.onAccess = func(n int64) {
			if n == 50 {
				m.Attach(late)
			}
		}
		detachAdder := m.Attach(adder)

		store := kvstore.New(m, kvstore.DefaultConfig(int(sc.Records)))
		client := ycsb.NewClient(m, store, ycsb.DefaultClientConfig(sc.Records))
		client.Load()
		client.Run(ycsb.WorkloadA, sc.Ops)

		detachAdder()
		detachAdder() // idempotent
		return cell{steady: steady.accesses, late: late.accesses}
	})
	for i, c := range outs {
		if c.steady == 0 {
			t.Errorf("machine %d: steady observer saw no accesses", i)
		}
		if c.late == 0 || c.late >= c.steady {
			t.Errorf("machine %d: observer attached mid-run saw %d of %d accesses", i, c.late, c.steady)
		}
	}
}

// TestLRUAccountingAfterChaosSoak soaks one machine under deterministic
// fault injection, then checks the residency identity: every distinct page
// descriptor mapped in some address space sits on exactly one LRU list, so
// the sum over nodes of TotalEvictable plus the unevictable population
// must equal the number of distinct resident pages.
func TestLRUAccountingAfterChaosSoak(t *testing.T) {
	chaos, err := fault.ParseSpec("42,0.02")
	if err != nil {
		t.Fatal(err)
	}
	sc := soakScale()
	sc.Chaos, sc.Seed = chaos, 7
	p, err := NewPolicy("multiclock", sc.Interval)
	if err != nil {
		t.Fatal(err)
	}
	defer stopDaemons(p)
	m := sc.machineWith(p)

	storeCfg := kvstore.DefaultConfig(int(sc.Records))
	storeCfg.HugeArena = true
	store := kvstore.New(m, storeCfg)
	client := ycsb.NewClient(m, store, ycsb.DefaultClientConfig(sc.Records))
	client.Load()
	client.Run(ycsb.WorkloadA, sc.Ops)
	client.Run(ycsb.WorkloadW, sc.Ops)

	if m.Mem.Counters.MinorFaults == 0 {
		t.Fatal("soak did not fault")
	}

	resident := map[*mem.Page]struct{}{}
	for _, as := range m.Spaces() {
		as.Walk(0, pagetable.MaxVPN+1, func(vpn pagetable.VPN, pg *mem.Page) {
			if pg != nil && pg.Node != mem.NoNode {
				resident[pg] = struct{}{}
			}
		})
	}
	onLRU := 0
	for _, v := range m.Vecs {
		if v == nil {
			continue
		}
		onLRU += v.TotalEvictable() + v.Len(lru.Unevictable)
	}
	if onLRU != len(resident) {
		t.Fatalf("LRU accounting diverged after chaos soak: %d pages on LRU lists, %d distinct resident pages",
			onLRU, len(resident))
	}
	// The per-vec structural check must agree too.
	for id, v := range m.Vecs {
		if v == nil {
			continue
		}
		if _, err := v.CheckConsistency(); err != nil {
			t.Errorf("vec %d: %v", id, err)
		}
	}
}

var _ machine.Observer = (*countingObserver)(nil)
