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

// ablationPromoteList compares the full recency+frequency promote list
// against Nimble's recency-only selection and static tiering — isolating
// the paper's core design choice.
func ablationPromoteList(o Options) string {
	res := o.run(o.scale().cells(kindWorkloadA, "static", "multiclock", "nimble"))
	static, mc, nb := res[0].cold, res[1].cold, res[2].cold
	tb := stats.NewTable(
		"Ablation — promote list (recency+frequency) vs recency-only selection, YCSB-A",
		"selector", "throughput (ops/s)", "vs static")
	tb.AddRow("static (no migration)", fmt.Sprintf("%.0f", static), "1.000")
	tb.AddRow("recency-only (nimble)", fmt.Sprintf("%.0f", nb), fmt.Sprintf("%.3f", safeDiv(nb, static)))
	tb.AddRow("recency+frequency (multiclock)", fmt.Sprintf("%.0f", mc), fmt.Sprintf("%.3f", safeDiv(mc, static)))
	return tb.String()
}

// ablationScanBatch sweeps kpromoted's pages-per-scan budget around the
// paper's 1024.
func ablationScanBatch(o Options) string {
	sc := o.scale()
	batches := []int{64, 256, 1024, 4096, 16384}
	// Cell 0 is the static baseline; cells 1.. sweep the batch size. The
	// default batch is the plain multiclock cell the other ablations run.
	cells := sc.cells(kindWorkloadA, "static")
	for _, batch := range batches {
		c := sc.cell(kindWorkloadA, "multiclock")
		if batch != core.DefaultConfig().ScanBatch {
			c.batch = batch
		}
		cells = append(cells, c)
	}
	res := o.run(cells)
	static := res[0].cold
	tb := stats.NewTable(
		"Ablation — scan batch size (pages per kpromoted run), YCSB-A",
		"batch", "throughput (ops/s)", "vs static")
	for i, batch := range batches {
		tp := res[i+1].cold
		tb.AddRow(fmt.Sprintf("%d", batch), fmt.Sprintf("%.0f", tp), fmt.Sprintf("%.3f", safeDiv(tp, static)))
	}
	return tb.String() + "\npaper operating point: 1024 pages per scan (§V-C)\n"
}

// ablationDRAMRatio sweeps the DRAM:PM capacity ratio (§VII: "it will also
// be interesting to see the performance of MULTI-CLOCK with varying DRAM
// and PM ratios").
func ablationDRAMRatio(o Options) string {
	sc := o.scale()
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
	var cells []cell
	for _, r := range ratios {
		s2 := sc
		s2.DRAMPages, s2.PMPages = r.dram, total-r.dram
		cells = append(cells, s2.cells(kindWorkloadA, "multiclock", "static")...)
	}
	res := o.run(cells)
	tb := stats.NewTable(
		"Ablation — DRAM:PM capacity ratio at fixed total capacity, YCSB-A",
		"ratio", "multiclock (ops/s)", "static (ops/s)", "mc/static")
	for i, r := range ratios {
		mc, st := res[2*i].cold, res[2*i+1].cold
		tb.AddRow(r.name, fmt.Sprintf("%.0f", mc), fmt.Sprintf("%.0f", st), fmt.Sprintf("%.3f", safeDiv(mc, st)))
	}
	return tb.String() + "\nexpected shape: dynamic tiering matters most when DRAM is scarce\n"
}

// ablationAMP runs the comparison the paper could not (§II-D: AMP is
// emulator-only and could not be deployed on the real testbed): the AMP
// selectors — exact LRU, exact LFU, random — against MULTI-CLOCK's
// low-overhead approximation, on YCSB-A. The interesting outcome is how
// close CLOCK+promote-list gets to full-information selection at a
// fraction of the tracking cost.
func ablationAMP(o Options) string {
	systems := []string{"amp-random", "amp-lru", "amp-lfu", "multiclock"}
	// Cell 0 is the static baseline (it never appears in the table body).
	res := o.run(o.scale().cells(kindWorkloadA, append([]string{"static"}, systems...)...))
	static := res[0].cold
	tb := stats.NewTable(
		"Ablation — AMP selectors (full per-access profiling) vs MULTI-CLOCK, YCSB-A",
		"system", "throughput (ops/s)", "vs static", "pages scanned")
	for i, system := range systems {
		r := res[i+1]
		tb.AddRow(system, fmt.Sprintf("%.0f", r.cold), fmt.Sprintf("%.3f", safeDiv(r.cold, static)),
			fmt.Sprintf("%d", r.counters.PagesScanned))
	}
	return tb.String() +
		"\nAMP scans and scores every in-memory page each interval (impractical in a\n" +
		"real kernel, §II-D); MULTI-CLOCK approximates it with a bounded CLOCK scan\n"
}

// ablationWriteAware compares the §VII write-aware extension (dirty pages
// promoted first) against the paper's read/write-oblivious default. YCSB
// cannot expose the difference (each record's read and write heat are
// symmetric), so this uses a microbenchmark with distinct read-hot and
// write-hot page sets in PM and a constrained promotion budget: the biased
// variant should spend the budget on the pages whose PM accesses are the
// costliest (writes).
func ablationWriteAware(opt Options) string {
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

// ablationGranularity runs the comparison Table I implies but the paper
// could not (Thermostat is not open source, §II-D): huge-page-region
// classification (Thermostat-style) against MULTI-CLOCK's base pages, on
// YCSB-A. Region granularity demotes wholesale and corrects
// misclassification slowly; base pages follow the actual hot set.
func ablationGranularity(o Options) string {
	systems := []string{"thermostat", "multiclock"}
	res := o.run(o.scale().cells(kindWorkloadA, append([]string{"static"}, systems...)...))
	static := res[0].cold
	tb := stats.NewTable(
		"Ablation — tiering granularity: Thermostat-style 2 MiB regions vs base pages, YCSB-A",
		"system", "throughput (ops/s)", "vs static", "promos", "demos")
	for i, system := range systems {
		r := res[i+1]
		tb.AddRow(system, fmt.Sprintf("%.0f", r.cold), fmt.Sprintf("%.3f", safeDiv(r.cold, static)),
			fmt.Sprintf("%d", r.counters.Promotions), fmt.Sprintf("%d", r.counters.Demotions))
	}
	return tb.String() +
		"\nzipfian heat is spread across pages: few 2 MiB regions are uniformly cold,\n" +
		"so region-granularity tiering finds little to move and strands hot pages in\n" +
		"PM when it does — the paper's case for base-page management (Table I)\n"
}

// ablationTHP compares base-page tiering against transparent-huge-page
// backing of the store's item memory (madvise(MADV_HUGEPAGE) style) under
// MULTI-CLOCK, on YCSB-A. THP shrinks the scanning population ~512× but
// migrates 2 MiB at a time and mixes hot and cold records inside each
// region — Table I's page-granularity axis (Thermostat/AMP are huge-page
// systems; MULTI-CLOCK manages all pages).
func ablationTHP(o Options) string {
	cells := o.scale().cells(kindWorkloadA, "multiclock", "multiclock")
	cells[1].huge = true
	res := o.run(cells)
	base, huge := res[0], res[1]
	tb := stats.NewTable(
		"Ablation — base pages vs transparent huge pages for item memory, multiclock, YCSB-A",
		"backing", "throughput (ops/s)", "frames promoted", "pages scanned")
	tb.AddRow("base (4 KiB)", fmt.Sprintf("%.0f", base.cold),
		fmt.Sprintf("%d", base.counters.Promotions), fmt.Sprintf("%d", base.counters.PagesScanned))
	tb.AddRow("huge (2 MiB)", fmt.Sprintf("%.0f", huge.cold),
		fmt.Sprintf("%d", huge.counters.Promotions), fmt.Sprintf("%d", huge.counters.PagesScanned))
	tb.AddRow("huge/base", fmt.Sprintf("%.3f", safeDiv(huge.cold, base.cold)), "", "")
	return tb.String() +
		"\nzipfian heat spreads across records: every 2 MiB region is lukewarm, so\n" +
		"huge-grain tiering cannot separate hot from cold — the paper's base-page\n" +
		"management (Table I) is what makes the promote list effective\n"
}
