package main

import (
	"math"
	"time"

	"multiclock/internal/bench"
	"multiclock/internal/lru"
	"multiclock/internal/machine"
	"multiclock/internal/mem"
	"multiclock/internal/pagetable"
	"multiclock/internal/policy"
	"multiclock/internal/sim"
	"multiclock/internal/ycsb"
)

// Isolated drivers: the per-call cost of one exported entry point with
// nothing else running, ported from the repository's micro-benchmarks
// (bench_test.go). Each is timed over driverRuns runs of about
// driverSeconds and reports the fastest: interference only slows a run.

const driverRuns = 5

// driverSeconds is the length of one driver run at a scale.
func driverSeconds(sc scale) float64 { return 0.3 / float64(sc.work) }

// timeDriver returns the fastest run's host ns per unit of op, where op(n) does n
// calls and returns how many units that was (calls, or pages scanned).
func timeDriver(sc scale, op func(n int) int) float64 {
	target := driverSeconds(sc)
	n := 1 << 12
	for {
		t0 := time.Now()
		op(n)
		if d := since(t0); d >= target/4 || n >= 1<<28 {
			n = int(float64(n)*target/math.Max(d, 1e-9)) + 1
			break
		}
		n *= 4
	}
	best := math.Inf(1)
	for i := 0; i < driverRuns; i++ {
		t0 := time.Now()
		units := op(n)
		best = math.Min(best, since(t0)*1e9/float64(units))
	}
	return best
}

// driverMachine is bench_test.go's microMachine: 4096 DRAM + 16384 PM
// frames, no per-op CPU cost.
func driverMachine(p machine.Policy, cpuCachePages int) *machine.Machine {
	cfg := machine.DefaultConfig()
	cfg.Mem.DRAMNodes = []int{4096}
	cfg.Mem.PMNodes = []int{16384}
	cfg.OpCost = 0
	cfg.CPUCachePages = cpuCachePages
	return machine.New(cfg, p)
}

// drivers maps a per-layer metric to the driver that produces it.
var drivers = map[string]func(sc scale) float64{
	"ycsb.chooser_ns_per_key": func(sc scale) float64 {
		z := ycsb.NewScrambled(1 << 20)
		rng := sim.NewRNG(3)
		return timeDriver(sc, func(n int) int {
			var acc int64
			for i := 0; i < n; i++ {
				acc += z.Next(rng)
			}
			sink = int(acc)
			return n
		})
	},
	"machine.access_cached_ns": func(sc scale) float64 {
		// 32 pages fit the 64-page CPU-cache model: every access is filtered.
		return accessDriver(sc, 32, 64)
	},
	"machine.access_resident_ns": func(sc scale) float64 {
		return accessDriver(sc, 1024, 0)
	},
	"machine.fault_unmap_ns": func(sc scale) float64 {
		m := driverMachine(policy.NewStatic(), 64)
		as := m.NewSpace()
		v := as.Mmap(1<<20, false, "huge")
		return timeDriver(sc, func(n int) int {
			for i := 0; i < n; i++ {
				vpn := v.Start + pagetable.VPN(i%4000)
				m.Access(as, vpn, false)
				m.Unmap(as, vpn)
			}
			return n
		})
	},
	"machine.migrate_roundtrip_ns": func(sc scale) float64 {
		m := driverMachine(policy.NewStatic(), 64)
		as := m.NewSpace()
		v := as.Mmap(1, false, "x")
		pg := m.Access(as, v.Start, false)
		slow := m.Mem.TierNodes(m.Mem.SlowestTier())[0]
		fast := m.Mem.TierNodes(m.Mem.FastestTier())[0]
		return timeDriver(sc, func(n int) int {
			for i := 0; i < n; i++ {
				if !m.MigratePage(pg, slow) || !m.MigratePage(pg, fast) {
					panic("benchmarks: driver migration failed")
				}
			}
			return n
		})
	},
	"core.access_ns_per_call": func(sc scale) float64 {
		p, err := bench.NewPolicy("multiclock", 0)
		if err != nil {
			panic(err)
		}
		m := driverMachine(p, 64)
		defer stopPolicy(p)()
		as := m.NewSpace()
		v := as.Mmap(1024, false, "x")
		pages := make([]*mem.Page, 1024)
		for i := range pages {
			pages[i] = m.Access(as, v.Start+pagetable.VPN(i), false)
		}
		pol := m.Policy
		return timeDriver(sc, func(n int) int {
			var acc sim.Duration
			for i := 0; i < n; i++ {
				acc += pol.Access(pages[i&1023], i&3 == 0)
			}
			sink = int(acc)
			return n
		})
	},
	"pagetable.install_unmap_ns": func(sc scale) float64 {
		as := pagetable.New(0)
		v := as.Mmap(4096, false, "x")
		pg := &mem.Page{}
		return timeDriver(sc, func(n int) int {
			for i := 0; i < n; i++ {
				vpn := v.Start + pagetable.VPN(i&4095)
				as.Install(vpn, pg)
				as.Unmap(vpn)
			}
			return n
		})
	},
	"lru.scan_cycle_ns_per_page": func(sc scale) float64 {
		vec, pages := populatedVec(8192)
		rng := sim.NewRNG(2)
		return timeDriver(sc, func(n int) int {
			scanned := 0
			for scanned < n {
				// Touch a fraction like real scans see.
				for j := 0; j < 256; j++ {
					pages[rng.Intn(len(pages))].Accessed = true
				}
				scanned += vec.ScanCycle(1024).Scanned
			}
			return scanned
		})
	},
	"lru.mark_accessed_ns": func(sc scale) float64 {
		vec, pages := populatedVec(8192)
		rng := sim.NewRNG(4)
		return timeDriver(sc, func(n int) int {
			for i := 0; i < n; i++ {
				vec.MarkAccessed(pages[rng.Intn(len(pages))])
			}
			return n
		})
	},
	"lru.add_delete_ns": func(sc scale) float64 {
		vec := lru.NewVec(0)
		pg := &mem.Page{}
		return timeDriver(sc, func(n int) int {
			for i := 0; i < n; i++ {
				vec.Add(pg)
				vec.Delete(pg)
			}
			return n
		})
	},
	"mem.alloc_free_ns": func(sc scale) float64 {
		m := driverMachine(policy.NewStatic(), 64)
		order := m.Mem.BirthOrder()
		return timeDriver(sc, func(n int) int {
			for i := 0; i < n; i++ {
				m.Mem.Free(m.Mem.Alloc(order))
			}
			return n
		})
	},
	"mem.migrate_ns": func(sc scale) float64 {
		m := driverMachine(policy.NewStatic(), 64)
		pg := m.Mem.Alloc(m.Mem.BirthOrder())
		pg.SetFlags(mem.FlagIsolated) // Migrate takes pages already off the LRU
		slow := m.Mem.TierNodes(m.Mem.SlowestTier())[0]
		fast := m.Mem.TierNodes(m.Mem.FastestTier())[0]
		return timeDriver(sc, func(n int) int {
			for i := 0; i < n; i += 2 {
				if !m.Mem.Migrate(pg, slow).OK || !m.Mem.Migrate(pg, fast).OK {
					panic("benchmarks: driver migration failed")
				}
			}
			return n
		})
	},
	"sim.advance_ns": func(sc scale) float64 {
		c := sim.NewClock()
		c.StartDaemon("idle", 1<<60, func(sim.Time) {})
		return timeDriver(sc, func(n int) int {
			for i := 0; i < n; i++ {
				c.Advance(1)
			}
			return n
		})
	},
	"sim.schedule_fire_ns": func(sc scale) float64 {
		c := sim.NewClock()
		const daemons = 8
		for i := 0; i < daemons; i++ {
			c.StartDaemon("d", sim.Millisecond, func(sim.Time) {})
		}
		return timeDriver(sc, func(n int) int {
			for i := 0; i < n; i += daemons {
				c.Advance(sim.Millisecond)
			}
			return n
		})
	},
}

// accessDriver times Machine.Access over a resident region of the given
// size on the null policy.
func accessDriver(sc scale, pages, cpuCachePages int) float64 {
	m := driverMachine(policy.NewStatic(), cpuCachePages)
	as := m.NewSpace()
	v := as.Mmap(pages, false, "x")
	m.AccessRange(as, v.Start, pages, false, 1)
	rng := sim.NewRNG(1)
	return timeDriver(sc, func(n int) int {
		for i := 0; i < n; i++ {
			m.Access(as, v.Start+pagetable.VPN(rng.Intn(pages)), false)
		}
		return n
	})
}

func populatedVec(n int) (*lru.Vec, []*mem.Page) {
	vec := lru.NewVec(0)
	pages := make([]*mem.Page, n)
	for i := range pages {
		pages[i] = &mem.Page{}
		vec.Add(pages[i])
	}
	return vec, pages
}
