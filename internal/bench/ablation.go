package bench

import (
	"fmt"

	"multiclock/internal/core"
	"multiclock/internal/pagetable"
	"multiclock/internal/runner"
	"multiclock/internal/sim"
	"multiclock/internal/stats"
)

// The ablation studies exercise the design choices DESIGN.md calls out.
// They go beyond the paper's figures but answer the questions its
// discussion raises (§V-E tuning, §VII future work).

// AblationPromoteList compares the full recency+frequency promote list
// against Nimble's recency-only selection and static tiering — isolating
// the paper's core design choice.
func AblationPromoteList(opt Options) string {
	sc := opt.scale()
	tps := runner.Map(opt.workers(), []string{"static", "multiclock", "nimble"}, func(_ int, system string) float64 {
		return ycsbOneWorkload(sc, system)
	})
	static, mc, nb := tps[0], tps[1], tps[2]
	tb := stats.NewTable(
		"Ablation — promote list (recency+frequency) vs recency-only selection, YCSB-A",
		"selector", "throughput (ops/s)", "vs static")
	tb.AddRow("static (no migration)", fmt.Sprintf("%.0f", static), "1.000")
	tb.AddRow("recency-only (nimble)", fmt.Sprintf("%.0f", nb), fmt.Sprintf("%.3f", safeDiv(nb, static)))
	tb.AddRow("recency+frequency (multiclock)", fmt.Sprintf("%.0f", mc), fmt.Sprintf("%.3f", safeDiv(mc, static)))
	return tb.String()
}

// AblationScanBatch sweeps kpromoted's pages-per-scan budget around the
// paper's 1024.
func AblationScanBatch(opt Options) string {
	sc := opt.scale()
	batches := []int{64, 256, 1024, 4096, 16384}
	// Cell 0 is the static baseline; cells 1.. sweep the batch size.
	tps := runner.Map(opt.workers(), append([]int{0}, batches...), func(_ int, batch int) float64 {
		if batch == 0 {
			return ycsbOneWorkload(sc, "static")
		}
		cfg := core.DefaultConfig()
		cfg.ScanInterval = sc.Interval
		cfg.ScanBatch = batch
		tp, _ := runWorkloadA(sc, sc.machineWith(core.New(cfg)), false, false)
		return tp
	})
	static := tps[0]
	tb := stats.NewTable(
		"Ablation — scan batch size (pages per kpromoted run), YCSB-A",
		"batch", "throughput (ops/s)", "vs static")
	for i, batch := range batches {
		tp := tps[i+1]
		tb.AddRow(fmt.Sprintf("%d", batch), fmt.Sprintf("%.0f", tp), fmt.Sprintf("%.3f", safeDiv(tp, static)))
	}
	return tb.String() + "\npaper operating point: 1024 pages per scan (§V-C)\n"
}

// AblationDRAMRatio sweeps the DRAM:PM capacity ratio (§VII: "it will also
// be interesting to see the performance of MULTI-CLOCK with varying DRAM
// and PM ratios").
func AblationDRAMRatio(opt Options) string {
	sc := opt.scale()
	total := sc.DRAMPages + sc.PMPages
	ratios := []struct {
		name string
		dram int
	}{
		{"1:16", total / 17},
		{"1:8", total / 9},
		{"1:4", total / 5},
		{"1:2", total / 3},
		{"1:1", total / 2},
	}
	type ratioCell struct {
		dram   int
		system string
	}
	var cellDefs []ratioCell
	for _, r := range ratios {
		cellDefs = append(cellDefs, ratioCell{r.dram, "multiclock"}, ratioCell{r.dram, "static"})
	}
	tps := runner.Map(opt.workers(), cellDefs, func(_ int, c ratioCell) float64 {
		s2 := sc
		s2.DRAMPages = c.dram
		s2.PMPages = total - c.dram
		return ycsbOneWorkload(s2, c.system)
	})
	tb := stats.NewTable(
		"Ablation — DRAM:PM capacity ratio at fixed total capacity, YCSB-A",
		"ratio", "multiclock (ops/s)", "static (ops/s)", "mc/static")
	for i, r := range ratios {
		mc, st := tps[2*i], tps[2*i+1]
		tb.AddRow(r.name, fmt.Sprintf("%.0f", mc), fmt.Sprintf("%.0f", st), fmt.Sprintf("%.3f", safeDiv(mc, st)))
	}
	return tb.String() + "\nexpected shape: dynamic tiering matters most when DRAM is scarce\n"
}

// AblationAMP runs the comparison the paper could not (§II-D: AMP is
// emulator-only and could not be deployed on the real testbed): the AMP
// selectors — exact LRU, exact LFU, random — against MULTI-CLOCK's
// low-overhead approximation, on YCSB-A. The interesting outcome is how
// close CLOCK+promote-list gets to full-information selection at a
// fraction of the tracking cost.
func AblationAMP(opt Options) string {
	sc := opt.scale()
	systems := []string{"amp-random", "amp-lru", "amp-lfu", "multiclock"}
	type ampRes struct {
		tp      float64
		scanned int64
	}
	// Cell 0 is the static baseline (it never appears in the table body).
	cells := runner.Map(opt.workers(), append([]string{"static"}, systems...), func(_ int, system string) ampRes {
		if system == "static" {
			return ampRes{tp: ycsbOneWorkload(sc, system)}
		}
		tp, _, m := ycsbWorkloadA(sc, system, false, false)
		return ampRes{tp: tp, scanned: m.Mem.Counters.PagesScanned}
	})
	static := cells[0].tp
	tb := stats.NewTable(
		"Ablation — AMP selectors (full per-access profiling) vs MULTI-CLOCK, YCSB-A",
		"system", "throughput (ops/s)", "vs static", "pages scanned")
	for i, system := range systems {
		r := cells[i+1]
		tb.AddRow(system, fmt.Sprintf("%.0f", r.tp), fmt.Sprintf("%.3f", safeDiv(r.tp, static)),
			fmt.Sprintf("%d", r.scanned))
	}
	return tb.String() +
		"\nAMP scans and scores every in-memory page each interval (impractical in a\n" +
		"real kernel, §II-D); MULTI-CLOCK approximates it with a bounded CLOCK scan\n"
}

// AblationWriteAware compares the §VII write-aware extension (dirty pages
// promoted first) against the paper's read/write-oblivious default. YCSB
// cannot expose the difference (each record's read and write heat are
// symmetric), so this uses a microbenchmark with distinct read-hot and
// write-hot page sets in PM and a constrained promotion budget: the biased
// variant should spend the budget on the pages whose PM accesses are the
// costliest (writes).
func AblationWriteAware(opt Options) string {
	sc := opt.scale()
	run := func(writeBias bool) sim.Duration {
		cfg := core.DefaultConfig()
		cfg.ScanInterval = sc.Interval
		cfg.WriteBias = writeBias
		// Ordering only matters when promotion bandwidth is contended.
		cfg.PromoteMax = 16
		p := core.New(cfg)
		m := sc.machineWith(p)
		as := m.NewSpace()

		// Map the hot sets first, then stream a large filler through DRAM
		// so demotion pushes the (momentarily cold) hot sets to PM.
		const hotN = 256
		readHot := as.Mmap(hotN, false, "read-hot")
		writeHot := as.Mmap(hotN, false, "write-hot")
		for i := 0; i < hotN; i++ {
			m.Access(as, readHot.Start+pagetable.VPN(i), false)
			m.Access(as, writeHot.Start+pagetable.VPN(i), true)
		}
		filler := as.Mmap(2*sc.DRAMPages, false, "filler")
		for round := 0; round < 3; round++ {
			for i := 0; i < filler.Pages(); i++ {
				m.Access(as, filler.Start+pagetable.VPN(i), false)
			}
			m.Compute(sc.Interval + sc.Interval/2)
		}
		rng := sim.NewRNG(sc.Seed ^ 0xab1e)
		start := m.Clock.Now()
		steps := int(4 * sc.Ops)
		for i := 0; i < steps; i++ {
			m.Access(as, readHot.Start+pagetable.VPN(rng.Intn(hotN)), false)
			m.Access(as, writeHot.Start+pagetable.VPN(rng.Intn(hotN)), true)
		}
		p.Stop()
		return sim.Duration(m.Clock.Now() - start)
	}
	times := runner.Map(opt.workers(), []bool{false, true}, func(_ int, writeBias bool) sim.Duration {
		return run(writeBias)
	})
	plain, biased := times[0], times[1]
	tb := stats.NewTable(
		"Ablation — write-aware promotion (§VII extension), read-hot vs write-hot sets",
		"variant", "virtual time", "speedup")
	tb.AddRow("oblivious (paper)", plain.String(), "1.000")
	tb.AddRow("write-biased", biased.String(), fmt.Sprintf("%.3f", safeDiv(float64(plain), float64(biased))))
	return tb.String() + "\nPM writes are the costliest accesses; promoting dirty pages first targets them\n"
}

// AblationGranularity runs the comparison Table I implies but the paper
// could not (Thermostat is not open source, §II-D): huge-page-region
// classification (Thermostat-style) against MULTI-CLOCK's base pages, on
// YCSB-A. Region granularity demotes wholesale and corrects
// misclassification slowly; base pages follow the actual hot set.
func AblationGranularity(opt Options) string {
	sc := opt.scale()
	systems := []string{"thermostat", "multiclock"}
	type granRes struct {
		tp            float64
		promos, demos int64
	}
	cells := runner.Map(opt.workers(), append([]string{"static"}, systems...), func(_ int, system string) granRes {
		if system == "static" {
			return granRes{tp: ycsbOneWorkload(sc, system)}
		}
		tp, _, m := ycsbWorkloadA(sc, system, false, false)
		return granRes{tp: tp, promos: m.Mem.Counters.Promotions, demos: m.Mem.Counters.Demotions}
	})
	static := cells[0].tp
	tb := stats.NewTable(
		"Ablation — tiering granularity: Thermostat-style 2 MiB regions vs base pages, YCSB-A",
		"system", "throughput (ops/s)", "vs static", "promos", "demos")
	for i, system := range systems {
		r := cells[i+1]
		tb.AddRow(system, fmt.Sprintf("%.0f", r.tp), fmt.Sprintf("%.3f", safeDiv(r.tp, static)),
			fmt.Sprintf("%d", r.promos), fmt.Sprintf("%d", r.demos))
	}
	return tb.String() +
		"\nzipfian heat is spread across pages: few 2 MiB regions are uniformly cold,\n" +
		"so region-granularity tiering finds little to move and strands hot pages in\n" +
		"PM when it does — the paper's case for base-page management (Table I)\n"
}

// AblationTHP compares base-page tiering against transparent-huge-page
// backing of the store's item memory (madvise(MADV_HUGEPAGE) style) under
// MULTI-CLOCK, on YCSB-A. THP shrinks the scanning population ~512× but
// migrates 2 MiB at a time and mixes hot and cold records inside each
// region — Table I's page-granularity axis (Thermostat/AMP are huge-page
// systems; MULTI-CLOCK manages all pages).
func AblationTHP(opt Options) string {
	sc := opt.scale()
	type thpRes struct {
		tp              float64
		promos, scanned int64
	}
	cells := runner.Map(opt.workers(), []bool{false, true}, func(_ int, huge bool) thpRes {
		tp, _, m := ycsbWorkloadA(sc, "multiclock", false, huge)
		return thpRes{tp, m.Mem.Counters.Promotions, m.Mem.Counters.PagesScanned}
	})
	baseTP, basePromos, baseScan := cells[0].tp, cells[0].promos, cells[0].scanned
	hugeTP, hugePromos, hugeScan := cells[1].tp, cells[1].promos, cells[1].scanned
	tb := stats.NewTable(
		"Ablation — base pages vs transparent huge pages for item memory, multiclock, YCSB-A",
		"backing", "throughput (ops/s)", "frames promoted", "pages scanned")
	tb.AddRow("base (4 KiB)", fmt.Sprintf("%.0f", baseTP), fmt.Sprintf("%d", basePromos), fmt.Sprintf("%d", baseScan))
	tb.AddRow("huge (2 MiB)", fmt.Sprintf("%.0f", hugeTP), fmt.Sprintf("%d", hugePromos), fmt.Sprintf("%d", hugeScan))
	tb.AddRow("huge/base", fmt.Sprintf("%.3f", safeDiv(hugeTP, baseTP)), "", "")
	return tb.String() +
		"\nzipfian heat spreads across records: every 2 MiB region is lukewarm, so\n" +
		"huge-grain tiering cannot separate hot from cold — the paper's base-page\n" +
		"management (Table I) is what makes the promote list effective\n"
}
