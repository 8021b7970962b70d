package bench

// Cross-policy system fuzzing: drive every tiering policy with randomized
// access/unmap/idle sequences and check the machine's global invariants
// after the storm. These catch state-machine leaks that unit tests of
// individual packages cannot see.

import (
	"reflect"
	"testing"
	"testing/quick"

	"multiclock/internal/machine"
	"multiclock/internal/mem"
	"multiclock/internal/pagetable"
	"multiclock/internal/sim"
)

// checkInvariants asserts the machine's global consistency via the
// production checker (machine.CheckInvariants layers LRU and page-table
// consistency on mem.CheckInvariants).
func checkInvariants(t *testing.T, m *machine.Machine) {
	t.Helper()
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// fuzzOne runs one randomized scenario on one policy.
func fuzzOne(t *testing.T, system string, seed uint64, ops int) {
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
	m := machine.New(cfg, p)
	as := m.NewSpace()
	v := as.Mmap(2000, false, "fuzz")
	locked := as.Mmap(8, false, "locked")
	locked.Locked = true
	rng := sim.NewRNG(seed)

	for i := 0; i < ops; i++ {
		switch rng.Intn(20) {
		case 0:
			// Unmap a random page.
			m.Unmap(as, v.Start+pagetable.VPN(rng.Intn(2000)))
		case 1:
			// Idle long enough for daemons to run.
			m.Compute(sim.Duration(rng.Intn(20)) * sim.Millisecond)
		case 2:
			// Touch mlocked memory.
			m.Access(as, locked.Start+pagetable.VPN(rng.Intn(8)), true)
		case 3:
			// Supervised access path.
			m.SupervisedAccess(as, v.Start+pagetable.VPN(rng.Intn(2000)), rng.Intn(2) == 0)
		default:
			// Skewed regular accesses.
			var idx int
			if rng.Intn(10) < 7 {
				idx = rng.Intn(200)
			} else {
				idx = rng.Intn(2000)
			}
			m.Access(as, v.Start+pagetable.VPN(idx), rng.Intn(3) == 0)
		}
		m.EndOp()
	}
	p.Stop()
	checkInvariants(t, m)
}

func TestSystemInvariantsUnderFuzz(t *testing.T) {
	systems := append(append([]string{}, SystemNames...), "memory-mode", "amp-lfu", "amp-lru", "amp-random", "thermostat")
	ops := 8000
	if testing.Short() {
		ops = 1500
	}
	for _, system := range systems {
		system := system
		t.Run(system, func(t *testing.T) {
			t.Parallel() // each fuzzOne builds its own machine
			for seed := uint64(1); seed <= 3; seed++ {
				fuzzOne(t, system, seed, ops)
			}
		})
	}
}

// Property: simulation is deterministic for every policy — same seed,
// same elapsed time and counters.
func TestDeterminismAcrossPolicies(t *testing.T) {
	t.Parallel()
	run := func(system string, seed uint64) (sim.Duration, mem.Counters) {
		p, _ := NewPolicy(system, 5*sim.Millisecond)
		cfg := machine.DefaultConfig()
		cfg.Mem.DRAMNodes = []int{256}
		cfg.Mem.PMNodes = []int{1024}
		cfg.Seed = seed
		m := machine.New(cfg, p)
		as := m.NewSpace()
		v := as.Mmap(1500, false, "w")
		rng := sim.NewRNG(seed ^ 0xd)
		for i := 0; i < 3000; i++ {
			m.Access(as, v.Start+pagetable.VPN(rng.Intn(1500)), rng.Intn(2) == 0)
			m.EndOp()
		}
		p.Stop()
		return m.Elapsed(), m.Mem.Counters
	}
	f := func(seed uint64, sysIdx uint8) bool {
		systems := []string{"static", "multiclock", "nimble", "at-cpm", "at-opm", "memory-mode", "amp-lfu"}
		system := systems[int(sysIdx)%len(systems)]
		e1, c1 := run(system, seed)
		e2, c2 := run(system, seed)
		return e1 == e2 && reflect.DeepEqual(c1, c2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
