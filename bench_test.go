package multiclock

// One benchmark per table and figure of the paper, each regenerating the
// corresponding result through the evaluation harness, plus
// microbenchmarks of the simulator's hot paths. Run with:
//
//	go test -bench=. -benchmem
//
// Figure benchmarks execute in quick mode (compressed ops and intervals;
// see internal/bench's time-scaling note) so the whole suite completes in
// minutes; use mcsim -exp for full-scale runs.

import (
	"strings"
	"testing"

	"multiclock/internal/bench"
	"multiclock/internal/graph"
	"multiclock/internal/kvstore"
	"multiclock/internal/lru"
	"multiclock/internal/machine"
	"multiclock/internal/mem"
	"multiclock/internal/pagetable"
	"multiclock/internal/policy"
	"multiclock/internal/sim"
	"multiclock/internal/stats"
	"multiclock/internal/ycsb"
)

// newBenchStore builds a store with the evaluation's item cost model.
func newBenchStore(m *machine.Machine, items int) *kvstore.Store {
	cfg := kvstore.DefaultConfig(items)
	cfg.ItemTouches = 8
	return kvstore.New(m, cfg)
}

// benchExperiment runs one experiment per iteration and sanity-checks the
// output.
func benchExperiment(b *testing.B, name string, mustContain string) {
	b.Helper()
	opt := bench.Options{Quick: true, Seed: 1}
	for i := 0; i < b.N; i++ {
		out, err := bench.Run(name, opt)
		if err != nil {
			b.Fatal(err)
		}
		if !strings.Contains(out, mustContain) {
			b.Fatalf("experiment %s output missing %q:\n%s", name, mustContain, out)
		}
		if i == 0 {
			b.Log("\n" + out)
		}
	}
}

func BenchmarkFig1Heatmaps(b *testing.B)  { benchExperiment(b, "fig1", "heatmap") }
func BenchmarkFig2Frequency(b *testing.B) { benchExperiment(b, "fig2", "multi-access") }
func BenchmarkTable1(b *testing.B)        { benchExperiment(b, "table1", "multiclock") }
func BenchmarkFig5YCSB(b *testing.B)      { benchExperiment(b, "fig5", "workload") }
func BenchmarkFig6GAPBS(b *testing.B)     { benchExperiment(b, "fig6", "SSSP") }
func BenchmarkFig7MemoryMode(b *testing.B) {
	benchExperiment(b, "fig7", "memory-mode")
}
func BenchmarkFig8Promotions(b *testing.B) { benchExperiment(b, "fig8", "promoted") }
func BenchmarkFig9Reaccess(b *testing.B)   { benchExperiment(b, "fig9", "re-accessed") }
func BenchmarkFig10ScanInterval(b *testing.B) {
	benchExperiment(b, "fig10", "interval")
}
func BenchmarkAblationPromoteList(b *testing.B) {
	benchExperiment(b, "ablation-promote", "recency+frequency")
}
func BenchmarkAblationScanBatch(b *testing.B) {
	benchExperiment(b, "ablation-batch", "1024")
}
func BenchmarkAblationRatio(b *testing.B) {
	benchExperiment(b, "ablation-ratio", "1:4")
}
func BenchmarkAblationWriteAware(b *testing.B) {
	benchExperiment(b, "ablation-write", "write-biased")
}
func BenchmarkAblationAMP(b *testing.B) {
	benchExperiment(b, "ablation-amp", "amp-lfu")
}
func BenchmarkAblationGranularity(b *testing.B) {
	benchExperiment(b, "ablation-granularity", "thermostat")
}
func BenchmarkAblationMultiProc(b *testing.B) {
	benchExperiment(b, "ablation-multiproc", "late/early")
}
func BenchmarkAblationTHP(b *testing.B) {
	benchExperiment(b, "ablation-thp", "2 MiB")
}

// --- simulator hot-path microbenchmarks ---

func microMachine(p machine.Policy) *machine.Machine {
	cfg := machine.DefaultConfig()
	cfg.Mem.DRAMNodes = []int{4096}
	cfg.Mem.PMNodes = []int{16384}
	cfg.OpCost = 0
	return machine.New(cfg, p)
}

// BenchmarkAccessHotPath measures the cost of one simulated memory access
// to a resident page (the simulator's innermost loop).
func BenchmarkAccessHotPath(b *testing.B) {
	m := microMachine(policy.NewStatic())
	as := m.NewSpace()
	v := as.Mmap(1024, false, "x")
	for i := 0; i < 1024; i++ {
		m.Access(as, v.Start+pagetable.VPN(i), false)
	}
	rng := sim.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Access(as, v.Start+pagetable.VPN(rng.Intn(1024)), false)
	}
}

// BenchmarkAccessCached measures one access to a resident page that the
// CPU-cache model holds, the common case of gapbs-pr (DESIGN.md §7.7).
// "depth1" alternates two pages, so each access finds its page second in the
// LRU (64 % of gapbs-pr's touches); "depth0" repeats one page, already at
// the front.
func BenchmarkAccessCached(b *testing.B) {
	for _, c := range []struct {
		name string
		mask int // the page index is i&mask
	}{{"depth1", 1}, {"depth0", 0}} {
		b.Run(c.name, func(b *testing.B) {
			m := microMachine(policy.NewStatic())
			as := m.NewSpace()
			v := as.Mmap(2, false, "x")
			m.AccessRange(as, v.Start, 2, false, 1)
			filtered := m.Mem.Counters.CacheFiltered
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Access(as, v.Start+pagetable.VPN(i&c.mask), false)
			}
			b.StopTimer()
			if got := m.Mem.Counters.CacheFiltered - filtered; got != int64(b.N) {
				b.Fatalf("%d of %d accesses were cache hits", got, b.N)
			}
		})
	}
}

// BenchmarkPageFault measures demand-paging cost (allocation, PTE install,
// LRU insert).
func BenchmarkPageFault(b *testing.B) {
	m := microMachine(policy.NewStatic())
	as := m.NewSpace()
	v := as.Mmap(1<<20, false, "huge")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vpn := v.Start + pagetable.VPN(i%4000)
		m.Access(as, vpn, false)
		m.Unmap(as, vpn)
	}
}

// BenchmarkFaultEvict is the fault path's steady state, which
// BenchmarkPageFault's ping-pong on an empty machine never reaches: the
// machine is full, so every fault first evicts a page through direct reclaim
// (LRU scan, unmap, swap-out) and then pays a swap-in, and the allocator
// works on a fragmented node instead of re-coalescing one block. A warmed
// run allocates nothing (DESIGN.md §7.4).
func BenchmarkFaultEvict(b *testing.B) {
	cfg := machine.DefaultConfig()
	cfg.Mem.DRAMNodes = []int{1024}
	cfg.Mem.PMNodes = []int{8192}
	cfg.OpCost = 0
	m := machine.New(cfg, policy.NewStatic())
	as := m.NewSpace()
	// The first pages born settle in DRAM for good (direct reclaim takes
	// from the slowest tier); the stream runs over the rest.
	const settled, region = 2048, 40_000
	v := as.Mmap(settled+region, false, "stream")
	m.AccessRange(as, v.Start, settled, false, 1)
	stream := v.Start + settled
	for i := 0; i < 2*region; i++ {
		m.Access(as, stream+pagetable.VPN(i%region), false)
	}
	faults := m.Mem.Counters.MinorFaults
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Access(as, stream+pagetable.VPN(i%region), i%8 == 0)
	}
	b.StopTimer()
	if got := m.Mem.Counters.MinorFaults - faults; got < int64(b.N)*3/4 {
		b.Fatalf("%d of %d accesses faulted; the stream is meant to miss", got, b.N)
	}
}

// BenchmarkScanCycle measures one CLOCK pass over a populated vec.
func BenchmarkScanCycle(b *testing.B) {
	vec := lru.NewVec(0)
	pages := make([]*mem.Page, 8192)
	for i := range pages {
		pages[i] = &mem.Page{}
		vec.Add(pages[i])
	}
	rng := sim.NewRNG(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Touch a fraction like real scans see.
		for j := 0; j < 256; j++ {
			pages[rng.Intn(len(pages))].Accessed = true
		}
		vec.ScanCycle(1024)
	}
}

// BenchmarkScanCycleCold is BenchmarkScanCycle with the hand's descriptors
// out of cache: 65 536 slab-allocated pages (8 MiB of descriptors), their
// list order shuffled by a seeded round of activations, and a 16 MiB buffer
// walked before every timed pass. BenchmarkScanCycle's 8 192 descriptors stay
// cache-resident and cannot show what a miss per scanned page costs, which is
// the cost the ring lists exist to hide (DESIGN.md §7.2).
func BenchmarkScanCycleCold(b *testing.B) {
	const n = 1 << 16
	sys := mem.NewSystem(sim.NewClock(), mem.Config{DRAMNodes: []int{2 * n}, PMNodes: []int{64}})
	vec := lru.NewVec(0)
	pages := make([]*mem.Page, n)
	for i := range pages {
		pages[i] = sys.Alloc(sys.BirthOrder())
		vec.Add(pages[i])
	}
	rng := sim.NewRNG(2)
	for i := 0; i < 4*n; i++ {
		// Two picks activate a page, four put it on the promote list,
		// each at the head: list order becomes pick order.
		vec.MarkAccessed(pages[rng.Intn(n)])
	}
	evict := make([]byte, 16<<20)
	scanned := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < 256; j++ {
			pages[rng.Intn(n)].Accessed = true
		}
		for j := 0; j < len(evict); j += 64 {
			evict[j]++
		}
		b.StartTimer()
		scanned += vec.ScanCycle(1024).Scanned
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(scanned), "ns/page")
}

// BenchmarkScanCycleIdle is the pass file-churn's hands make (DESIGN.md §7.5):
// cache-resident file lists, inactive and active, where about nine pages in
// ten have neither the accessed bit nor the referenced flag when the hand
// arrives, and where pages leave from the middle and come back at the head
// between passes, so the rings carry tombstones. It is the run kernel
// (mem.PageList.AgeRun) with little else; BenchmarkScanCycle's anonymous lists
// see a quarter of their pages touched per pass.
func BenchmarkScanCycleIdle(b *testing.B) {
	vec := lru.NewVec(0)
	pages := make([]*mem.Page, 8192)
	for i := range pages {
		pages[i] = &mem.Page{Flags: mem.FlagFile}
		if i%2 == 0 {
			pages[i].Flags |= mem.FlagActive
		}
		vec.Add(pages[i])
	}
	rng := sim.NewRNG(2)
	scanned := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < 64; j++ {
			// A page is met every eighth pass, so 64 touches a pass leave
			// ~6 % of the hand's pages accessed and as many referenced.
			pages[rng.Intn(len(pages))].Accessed = true
			pg := pages[rng.Intn(len(pages))]
			vec.Delete(pg)
			vec.Add(pg)
		}
		b.StartTimer()
		scanned += vec.ScanCycle(1024).Scanned
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(scanned), "ns/page")
}

// BenchmarkMigration measures a promote+demote round trip.
func BenchmarkMigration(b *testing.B) {
	m := microMachine(policy.NewStatic())
	as := m.NewSpace()
	v := as.Mmap(1, false, "x")
	pg := m.Access(as, v.Start, false)
	pm := m.Mem.TierNodes(mem.TierPM)[0]
	dram := m.Mem.TierNodes(mem.TierDRAM)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !m.MigratePage(pg, pm) || !m.MigratePage(pg, dram) {
			b.Fatal("migration failed")
		}
	}
}

// BenchmarkYCSBOp measures one full key-value operation through the store,
// client and simulator.
func BenchmarkYCSBOp(b *testing.B) {
	m := microMachine(policy.NewStatic())
	store := newBenchStore(m, 10000)
	client := ycsb.NewClient(m, store, ycsb.DefaultClientConfig(10000))
	client.Load()
	b.ResetTimer()
	// Run in chunks so client-side batching is realistic.
	const chunk = 1024
	for n := 0; n < b.N; n += chunk {
		client.Run(ycsb.WorkloadA, chunk)
	}
}

// BenchmarkStoreGet is ycsb-a's read: a Get at the benchmark's scale (24 000
// records, eight touches per item page) under scrambled-zipfian keys, so the
// index probe at its ¾ load shows beside the simulated accesses. The keys are
// drawn up front, leaving the chooser out.
func BenchmarkStoreGet(b *testing.B) {
	const records = 24_000
	m := microMachine(policy.NewStatic())
	store := newBenchStore(m, records)
	client := ycsb.NewClient(m, store, ycsb.DefaultClientConfig(records))
	client.Load()
	keys := make([]uint64, 1<<16)
	ch, rng := ycsb.NewScrambled(records), sim.NewRNG(3)
	for i := range keys {
		keys[i] = uint64(ch.Next(rng))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !store.Get(keys[i&(len(keys)-1)]) {
			b.Fatal("miss on a loaded key")
		}
	}
}

// BenchmarkZipfian measures the key-chooser alone, over a key space too large
// for the inverse table: every draw evaluates the formula.
func BenchmarkZipfian(b *testing.B) {
	z := ycsb.NewScrambled(1 << 20)
	rng := sim.NewRNG(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = z.Next(rng)
	}
}

// BenchmarkZipfian24k is the chooser's other regime: the plain zipfian over
// the benchmark's ycsb-a key space in steady state, answering from the
// inverse table. The warm-up outlasts the lazy build, which comes after 18
// formula draws an item.
func BenchmarkZipfian24k(b *testing.B) {
	benchmarkTableChooser(b, ycsb.NewZipfian(24_000))
}

// BenchmarkScrambled24k is ycsb-a's own chooser on that table: the scramble
// is folded into the table's answers, so it should cost what the plain
// zipfian does.
func BenchmarkScrambled24k(b *testing.B) {
	benchmarkTableChooser(b, ycsb.NewScrambled(24_000))
}

func benchmarkTableChooser(b *testing.B, ch ycsb.Chooser) {
	rng := sim.NewRNG(3)
	for i := 0; i < 1_000_000; i++ {
		_ = ch.Next(rng)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ch.Next(rng)
	}
}

// BenchmarkLatencyHistogram is the latency histogram as a ycsb-a run uses it:
// Add on every operation's virtual-time latency, then the three percentiles
// Finish reads. The stream has a run's shape: nearly every sample on fifteen
// values of 1–5 µs, about 270 singletons scattered between 138 µs and 2²⁰ ns,
// and about 150 above. It reports ns per sample.
func BenchmarkLatencyHistogram(b *testing.B) {
	const samples = 1 << 20
	hot := []float64{1180, 1240, 1460, 1660, 1720, 1740, 1800, 1940, 2020, 3420, 3480, 3700, 4620, 4680, 4900}
	rng := sim.NewRNG(5)
	stream := make([]float64, samples)
	for i := range stream {
		switch r := rng.Intn(samples); {
		case r < 270:
			stream[i] = float64(138_000 + rng.Intn(1<<20-138_000))
		case r < 420:
			stream[i] = float64(1<<20 + rng.Intn(1<<20))
		default:
			stream[i] = hot[rng.Intn(len(hot))]
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var h stats.Histogram
		for _, v := range stream {
			h.Add(v)
		}
		if h.Percentile(50) > h.Percentile(95) || h.Percentile(95) > h.Percentile(99) {
			b.Fatal("percentiles out of order")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*samples), "ns/sample")
}

// BenchmarkGraphLoad is the GAPBS load phase at gapbs-pr's shape (96 000
// vertices, average degree 8, Kronecker): the RMAT edge list, then the
// symmetric, sorted, deduplicated CSR written into a fresh machine's
// simulated memory (DESIGN.md §7.6). It reports host ns per generated edge.
func BenchmarkGraphLoad(b *testing.B) {
	cfg := graph.GenConfig{Vertices: 96_000, Degree: 8, Kronecker: true, Seed: 1}
	edges := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := microMachine(policy.NewStatic())
		b.StartTimer()
		e := graph.GenerateEdges(cfg)
		graph.Build(m, e, cfg.Vertices, cfg.Seed)
		edges += len(e)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(edges), "ns/edge")
}

// BenchmarkKpromotedWakeup measures one daemon wakeup (scan + promote) on a
// steady-state multiclock machine.
func BenchmarkKpromotedWakeup(b *testing.B) {
	sys := NewSystem(Config{
		DRAMPages:    1024,
		PMPages:      8192,
		ScanInterval: 10 * Millisecond,
	})
	defer sys.Stop()
	store := sys.NewKVStore(12000)
	client := sys.NewYCSB(store, 12000)
	client.Load()
	client.Run(WorkloadA, 50000)
	m := sys.Machine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Advancing exactly one interval fires each node's daemon once.
		m.Compute(10 * Millisecond)
	}
}
