package bench

// Chaos soak: drive the tiering policies under deterministic fault
// injection and assert the robustness contract — no panics, machine
// invariants hold after every injected fault, equal seeds reproduce runs
// bit for bit, zero-rate injection is a true no-op, and a 1%
// migration-failure rate costs at most a bounded factor of virtual time.

import (
	"reflect"
	"testing"

	"multiclock/internal/fault"
	"multiclock/internal/machine"
	"multiclock/internal/mem"
	"multiclock/internal/pagetable"
	"multiclock/internal/sim"
)

// chaosRun drives one randomized workload on one policy under the given
// injection config. Invariants are re-checked at the first op boundary
// after every injected fault, so a fault that corrupts state is caught at
// the event that follows it, not after the storm.
func chaosRun(t *testing.T, system string, seed uint64, ops int, fcfg fault.Config) (sim.Duration, mem.Counters, fault.Counters) {
	t.Helper()
	p, err := NewPolicy(system, 5*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.DefaultConfig()
	cfg.Mem.DRAMNodes = []int{128, 128}
	cfg.Mem.PMNodes = []int{512, 512}
	cfg.Seed = seed
	cfg.OpCost = 200 * sim.Nanosecond
	cfg.Faults = fcfg
	m := machine.New(cfg, p)
	as := m.NewSpace()
	v := as.Mmap(2000, false, "chaos")

	rng := sim.NewRNG(seed ^ 0xc4a05)
	var seen int64
	for i := 0; i < ops; i++ {
		switch rng.Intn(20) {
		case 0:
			m.Unmap(as, v.Start+pagetable.VPN(rng.Intn(2000)))
		case 1:
			// Idle long enough for daemons (and their faults) to run.
			m.Compute(sim.Duration(rng.Intn(20)) * sim.Millisecond)
		default:
			var idx int
			if rng.Intn(10) < 7 {
				idx = rng.Intn(200)
			} else {
				idx = rng.Intn(2000)
			}
			m.Access(as, v.Start+pagetable.VPN(idx), rng.Intn(3) == 0)
		}
		m.EndOp()
		if m.Faults != nil {
			if tot := m.Faults.Counters.Total(); tot != seen {
				seen = tot
				if err := m.CheckInvariants(); err != nil {
					t.Fatalf("%s seed=%d op=%d after %d injected faults: %v", system, seed, i, tot, err)
				}
			}
		}
	}
	p.Stop()
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("%s seed=%d final: %v", system, seed, err)
	}
	var fc fault.Counters
	if m.Faults != nil {
		fc = m.Faults.Counters
	}
	return m.Elapsed(), m.Mem.Counters, fc
}

func chaosOps(t *testing.T) int {
	if testing.Short() {
		return 1200
	}
	return 5000
}

// bakeoffExtras are the competitor policies outside the paper's comparison
// set; they ride every chaos contract the paper systems do.
var bakeoffExtras = []string{"nomad", "s3fifo", "multiclock-gated", "nimble-gated"}

// TestChaosSoak: every tiered system survives a uniform 1% injection
// campaign with its invariants intact, and the campaign actually fires.
func TestChaosSoak(t *testing.T) {
	systems := append(append([]string{}, SystemNames...), "memory-mode")
	systems = append(systems, bakeoffExtras...)
	ops := chaosOps(t)
	for _, system := range systems {
		system := system
		t.Run(system, func(t *testing.T) {
			t.Parallel() // each run builds its own machine
			for seed := uint64(1); seed <= 2; seed++ {
				_, _, fc := chaosRun(t, system, seed, ops, fault.UniformRate(seed, 0.01))
				if fc.Total() == 0 {
					t.Fatalf("seed=%d: campaign injected nothing", seed)
				}
			}
		})
	}
}

// TestChaosDeterminism: equal seeds reproduce a chaos run exactly — same
// virtual elapsed time, same memory counters, same fault tallies.
func TestChaosDeterminism(t *testing.T) {
	t.Parallel()
	for _, system := range []string{"multiclock", "nimble", "nomad", "s3fifo", "multiclock-gated"} {
		fcfg := fault.UniformRate(77, 0.02)
		e1, c1, f1 := chaosRun(t, system, 9, chaosOps(t)/2, fcfg)
		e2, c2, f2 := chaosRun(t, system, 9, chaosOps(t)/2, fcfg)
		if e1 != e2 || !reflect.DeepEqual(c1, c2) || f1 != f2 {
			t.Fatalf("%s: chaos run not reproducible:\n%v %+v %+v\nvs\n%v %+v %+v",
				system, e1, c1, f1, e2, c2, f2)
		}
	}
}

// TestChaosZeroRateIsNoOp: a config whose rates are all zero must build no
// injector at all and leave the run identical to one with no fault config,
// seed field set or not.
func TestChaosZeroRateIsNoOp(t *testing.T) {
	t.Parallel()
	p, _ := NewPolicy("multiclock", 5*sim.Millisecond)
	cfg := machine.DefaultConfig()
	cfg.Faults = fault.Config{Seed: 99} // seed set, every rate zero
	m := machine.New(cfg, p)
	if m.Faults != nil {
		t.Fatal("zero-rate config built an injector")
	}
	p.Stop()

	ops := chaosOps(t) / 2
	for _, system := range append([]string{"multiclock"}, bakeoffExtras...) {
		e1, c1, f1 := chaosRun(t, system, 5, ops, fault.Config{})
		e2, c2, f2 := chaosRun(t, system, 5, ops, fault.Config{Seed: 99})
		if e1 != e2 || !reflect.DeepEqual(c1, c2) || f1 != f2 {
			t.Fatalf("%s: zero-rate run diverged from fault-free run: %v vs %v", system, e1, e2)
		}
		if f1.Total() != 0 || f2.Total() != 0 {
			t.Fatalf("%s: fault-free runs recorded injections", system)
		}
	}
}

// TestChaosThroughputBounded: a 1% transient-migration-failure rate (the
// tentpole's degradation budget) may cost virtual time, but within a small
// constant factor of the fault-free run — graceful degradation, not
// collapse.
func TestChaosThroughputBounded(t *testing.T) {
	t.Parallel()
	fcfg := fault.Config{Seed: 3}
	fcfg.Rates[fault.MigratePinned] = 0.005
	fcfg.Rates[fault.MigrateTargetDenied] = 0.005

	ops := chaosOps(t)
	clean, cc, _ := chaosRun(t, "multiclock", 11, ops, fault.Config{})
	faulty, fc, inj := chaosRun(t, "multiclock", 11, ops, fcfg)
	if inj.Total() == 0 {
		t.Skip("campaign injected nothing at this scale")
	}
	if faulty > 2*clean {
		t.Fatalf("1%% migration-failure rate cost %v vs fault-free %v (> 2x)", faulty, clean)
	}
	// The same op sequence ran to completion under faults. (Per-tier
	// counts may shift — placement changes what the modelled CPU cache
	// absorbs — but the op total is invariant.)
	if fc.TotalAccesses()+fc.CacheFiltered != cc.TotalAccesses()+cc.CacheFiltered {
		t.Fatalf("faulty run lost accesses: %d vs %d",
			fc.TotalAccesses()+fc.CacheFiltered, cc.TotalAccesses()+cc.CacheFiltered)
	}
}
