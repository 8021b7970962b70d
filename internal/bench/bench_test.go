package bench

// These tests assert the *shapes* each experiment must reproduce — the
// qualitative claims of the paper's evaluation — at quick scale. They are
// the repository's reproduction contract; EXPERIMENTS.md records the
// numbers.

import (
	"math"
	"slices"
	"strings"
	"testing"

	"multiclock/internal/graph"
	"multiclock/internal/sim"
)

// testCells is the cell cache the shape tests read. TestGoldenExperiments,
// which is not parallel and so finishes before any of them starts, replaces
// it with the cache it ran every experiment through, so they read its cells
// rather than run them again.
var testCells = new(cellCache)

// quickAt is the quick-scale Options at seed, through the shared cache.
func quickAt(seed uint64) Options {
	return Options{Quick: true, Seed: seed, Parallel: -1, cache: testCells}
}

// shapeSeeds are the seeds the shape tests check each ordering at; the
// seed-1 cells are the golden run's.
var shapeSeeds = []uint64{1, 2, 3}

// seededCells returns build's cells at every shape seed, in seed order, and
// computes them in one batch.
func seededCells(build func(sc scale) []cell) []cellResult {
	var cells []cell
	for _, seed := range shapeSeeds {
		cells = append(cells, build(quickAt(seed).scale())...)
	}
	return quickAt(1).run(cells)
}

// mustRun runs one experiment through Run and fails the test on an error.
func mustRun(t *testing.T, name string, o Options) string {
	t.Helper()
	out, err := Run(name, o)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestNewPolicyNames(t *testing.T) {
	if len(PolicyNames()) != 14 {
		t.Fatalf("policy table has %d entries, want the 14 benchmarks/ sweeps", len(PolicyNames()))
	}
	for _, name := range PolicyNames() {
		p, err := NewPolicy(name, 10*sim.Millisecond)
		if err != nil {
			t.Fatalf("NewPolicy(%q): %v", name, err)
		}
		// A gated variant reports its base policy plus the gate.
		base, gated := strings.CutSuffix(name, "-gated")
		if got := p.Name(); got != name && !(gated && strings.HasPrefix(got, base+"+bandwidth-gate")) {
			t.Fatalf("policy %q reports %q", name, got)
		}
	}
	if _, err := NewPolicy("bogus", 0); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestRunDispatcher(t *testing.T) {
	if _, err := Run("nope", quickAt(1)); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	names := Names()
	if len(names) < 12 {
		t.Fatalf("only %d experiments registered", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i] < names[i-1] {
			t.Fatal("Names not sorted")
		}
	}
}

func TestTable1MentionsEveryTechnique(t *testing.T) {
	out := Table1()
	for _, s := range []string{"static", "nimble", "at-cpm", "at-opm", "memory-mode", "multiclock", "recency+frequency"} {
		if !strings.Contains(out, s) {
			t.Fatalf("Table1 missing %q", s)
		}
	}
}

// --- Fig. 5 shape: the headline YCSB comparison ---

// TestFig5Shape asserts every ordering of EXPERIMENTS.md's Fig. 5 record at
// seeds 1, 2 and 3; the seed-1 cells are the golden run's.
func TestFig5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	t.Parallel()
	res := seededCells(func(sc scale) []cell { return sc.cells(kindSequence, SystemNames...) })
	for s, seed := range shapeSeeds {
		tp := map[string]map[string]float64{}
		for i, system := range SystemNames {
			tp[system] = res[s*len(SystemNames)+i].tp
		}
		for _, w := range sequenceWorkloads {
			static, mc, nb := tp["static"][w], tp["multiclock"][w], tp["nimble"][w]
			cpm, opm := tp["at-cpm"][w], tp["at-opm"][w]
			// MULTI-CLOCK outperforms static tiering on every workload.
			if mc <= static {
				t.Errorf("seed %d, workload %s: multiclock %.0f ≤ static %.0f", seed, w, mc, static)
			}
			// MULTI-CLOCK outperforms Nimble's recency-only selection,
			// except on D, where the two tie (checked below).
			if w != "D" && mc <= nb {
				t.Errorf("seed %d, workload %s: multiclock %.0f ≤ nimble %.0f", seed, w, mc, nb)
			}
			// MULTI-CLOCK far outperforms AT-CPM (paper: 260-677%).
			if mc < 1.3*cpm {
				t.Errorf("seed %d, workload %s: multiclock %.0f not ≫ at-cpm %.0f", seed, w, mc, cpm)
			}
			// MULTI-CLOCK outperforms AT-OPM (paper: 10-352%).
			if mc <= opm {
				t.Errorf("seed %d, workload %s: multiclock %.0f ≤ at-opm %.0f", seed, w, mc, opm)
			}
			// AT-OPM beats AT-CPM (history-driven demotion headroom).
			if opm <= cpm {
				t.Errorf("seed %d, workload %s: at-opm %.0f ≤ at-cpm %.0f", seed, w, opm, cpm)
			}
		}
		// Workload D is MULTI-CLOCK's best case vs static in the paper
		// (+132%, the maximum across workloads); here it is D or W.
		best, bestW := 0.0, ""
		for _, w := range sequenceWorkloads {
			if gain := tp["multiclock"][w] / tp["static"][w]; gain > best {
				best, bestW = gain, w
			}
		}
		if bestW != "D" && bestW != "W" {
			t.Errorf("seed %d: largest multiclock gain on %s (%.3f), expected D (or W)", seed, bestW, best)
		}
		// On D, MULTI-CLOCK and Nimble tie (EXPERIMENTS.md, deviation 4):
		// the ratio falls on either side of 1 from seed to seed, so an
		// ordering would assert a coin flip.
		const dTieBand = 0.05
		r := tp["multiclock"]["D"] / tp["nimble"]["D"]
		t.Logf("seed %d: multiclock/nimble on D = %.3f, largest gain on %s (%.3f)", seed, r, bestW, best)
		if math.Abs(r-1) > dTieBand {
			t.Errorf("workload D, seed %d: multiclock/nimble = %.3f, outside the ±%.0f%% tie band", seed, r, 100*dTieBand)
		}
	}
}

// --- Figs. 8/9 shape: promotion count and quality ---

// TestPromotionTelemetryShape asserts Figs. 8 and 9's orderings at every
// shape seed.
func TestPromotionTelemetryShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	t.Parallel()
	res := seededCells(promotionCells)
	for s, seed := range shapeSeeds {
		mc, nb := res[2*s].promotions, res[2*s+1].promotions
		// Nimble promotes more pages (Fig. 8)...
		if nb.TotalPromotions() <= mc.TotalPromotions() {
			t.Errorf("seed %d: nimble promotions %d ≤ multiclock %d", seed, nb.TotalPromotions(), mc.TotalPromotions())
		}
		// ...but a smaller fraction of them are re-accessed (Fig. 9; paper
		// reports ≈15 points of difference).
		mcRe := mc.MeanReaccessPercent()
		nbRe := nb.MeanReaccessPercent()
		t.Logf("seed %d: promotions %d/%d, re-access %.1f%%/%.1f%% (multiclock/nimble)",
			seed, mc.TotalPromotions(), nb.TotalPromotions(), mcRe, nbRe)
		if mcRe <= nbRe {
			t.Errorf("seed %d: multiclock re-access %.1f%% ≤ nimble %.1f%%", seed, mcRe, nbRe)
		}
		if mcRe-nbRe < 5 {
			t.Errorf("seed %d: re-access gap %.1f points, want a clear margin", seed, mcRe-nbRe)
		}
	}
}

// --- Fig. 10 shape: interval sensitivity ---

// TestFig10Shape asserts Fig. 10's orderings at every shape seed.
func TestFig10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	t.Parallel()
	res := seededCells(func(sc scale) []cell {
		return []cell{
			steadyCell(sc, "static", sc.Interval),
			steadyCell(sc, "multiclock", sc.Interval),
			steadyCell(sc, "multiclock", sc.Interval/10),
			steadyCell(sc, "multiclock", 60*sc.Interval),
		}
	})
	for s, seed := range shapeSeeds {
		r := res[4*s:]
		base, atOperating, tooFast, tooSlow := r[0].steady, r[1].steady, r[2].steady, r[3].steady
		t.Logf("seed %d: operating %.3f, 10× faster %.3f, 60× slower %.3f (× static)",
			seed, atOperating/base, tooFast/base, tooSlow/base)
		if atOperating <= base {
			t.Errorf("seed %d: operating point %.0f ≤ static %.0f", seed, atOperating, base)
		}
		// Scanning 10× too often pays overhead (§V-E context switches).
		if tooFast >= atOperating {
			t.Errorf("seed %d: 10× faster scanning %.0f ≥ operating %.0f", seed, tooFast, atOperating)
		}
		// Scanning 60× too rarely lags the workload.
		if tooSlow >= atOperating {
			t.Errorf("seed %d: 60× slower scanning %.0f ≥ operating %.0f", seed, tooSlow, atOperating)
		}
	}
}

// --- Fig. 2 shape ---

func TestFig2Shape(t *testing.T) {
	out := fig2(quickAt(1))
	if !strings.Contains(out, "multi-access") {
		t.Fatalf("fig2 output: %s", out)
	}
	// Every pattern row must show a ratio > 1 (multi-access pages
	// dominate); the rendering puts "x" after each ratio.
	lines := strings.Split(out, "\n")
	rows := 0
	for _, ln := range lines {
		for _, p := range []string{"rubis", "specpower", "xalan", "lusearch"} {
			if strings.HasPrefix(ln, p) {
				rows++
				if strings.Contains(ln, " 0.") {
					t.Errorf("pattern %s ratio below 1: %s", p, ln)
				}
			}
		}
	}
	if rows != 4 {
		t.Fatalf("fig2 rows = %d, want 4", rows)
	}
}

// --- Fig. 1 shape ---

func TestFig1RendersFourHeatmaps(t *testing.T) {
	out := fig1(quickAt(1))
	if got := strings.Count(out, "heatmap:"); got != 4 {
		t.Fatalf("heatmaps rendered = %d, want 4", got)
	}
	for _, p := range []string{"rubis", "specpower", "xalan", "lusearch"} {
		if !strings.Contains(out, p) {
			t.Fatalf("missing %s", p)
		}
	}
}

// --- Fig. 7 shape ---

// TestFig7Shape asserts Fig. 7's orderings at every shape seed.
func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	t.Parallel()
	res := seededCells(func(sc scale) []cell {
		sc.Records = int64(16 * sc.DRAMPages)
		return sc.cells(kindSequence, "static", "multiclock", "memory-mode")
	})
	for s, seed := range shapeSeeds {
		static, mc, mm := res[3*s].tp, res[3*s+1].tp, res[3*s+2].tp
		for _, w := range []string{"A", "D"} {
			t.Logf("seed %d, workload %s: multiclock/memory-mode %.3f", seed, w, mc[w]/mm[w])
			// Both beat static at 4× footprint; multiclock is competitive
			// with memory-mode (paper: within 2%, up to 9% better).
			if mc[w] <= static[w] || mm[w] <= static[w] {
				t.Errorf("seed %d, workload %s: mc %.0f / mm %.0f vs static %.0f", seed, w, mc[w], mm[w], static[w])
			}
			if mc[w] < 0.95*mm[w] {
				t.Errorf("seed %d, workload %s: multiclock %.0f far below memory-mode %.0f", seed, w, mc[w], mm[w])
			}
		}
	}
}

// --- GAPBS sanity (full Fig. 6 is exercised by the root benchmarks) ---

func TestGAPBSKernelRunnersProduceTime(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	t.Parallel()
	o := quickAt(1)
	sc := o.scale()
	sc.Graph.Vertices, sc.Graph.Degree = 8000, 4
	var cells []cell
	for _, k := range gapbsKernels {
		cells = append(cells, kernelCell(sc, "static", k))
	}
	for i, r := range o.run(cells) {
		if r.seconds <= 0 {
			t.Errorf("kernel %s reported no time", gapbsKernels[i])
		}
	}
}

func TestGAPBSUnknownKernelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	sc := quickAt(1).scale()
	sc.Graph.Vertices, sc.Graph.Degree = 100, 2
	kernelCell(sc, "static", "WAT").run(graph.GenerateEdges)
}

// --- Ablations ---

func TestAblationWriteAwareShowsBenefit(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	t.Parallel()
	out := ablationWriteAware(quickAt(1))
	if !strings.Contains(out, "write-biased") {
		t.Fatalf("output: %s", out)
	}
	// The speedup cell of the biased row must exceed 1.0.
	for _, ln := range strings.Split(out, "\n") {
		if strings.HasPrefix(ln, "write-biased") {
			if strings.Contains(ln, " 0.") || strings.Contains(ln, " 1.000") {
				t.Errorf("write bias showed no benefit: %s", ln)
			}
		}
	}
}

// TestAblationBatchMatchesPromoteList: ablation-batch's 1024-page cell and
// ablation-promote's multiclock cell are both core.DefaultConfig() at the
// operating interval, divided by the same static baseline, so the two rows
// must read the same. They did not while the batch cells ran on another
// client key stream than their baseline.
func TestAblationBatchMatchesPromoteList(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	t.Parallel()
	row := func(out, prefix string) []string {
		for _, ln := range strings.Split(out, "\n") {
			if strings.HasPrefix(ln, prefix) {
				f := strings.Fields(strings.TrimPrefix(ln, prefix))
				return f[len(f)-2:]
			}
		}
		t.Fatalf("no %q row in:\n%s", prefix, out)
		return nil
	}
	batch := row(ablationScanBatch(quickAt(1)), "1024 ")
	promote := row(ablationPromoteList(quickAt(1)), "recency+frequency (multiclock)")
	if !slices.Equal(batch, promote) {
		t.Errorf("batch=1024 cell reads %v, the promote-list multiclock cell %v", batch, promote)
	}
}

// --- multi-process allocation race (§II-D motivation) ---

// TestMultiProcFairnessShape asserts the allocation race's orderings at
// every shape seed.
func TestMultiProcFairnessShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	t.Parallel()
	res := seededCells(func(sc scale) []cell { return sc.cells(kindRace, "static", "multiclock") })
	for s, seed := range shapeSeeds {
		stEarly, stLate := res[2*s].early, res[2*s].late
		mcEarly, mcLate := res[2*s+1].early, res[2*s+1].late
		stFair := stLate / stEarly
		mcFair := mcLate / mcEarly
		t.Logf("seed %d: late/early static %.3f, multiclock %.3f; late process %.0f/%.0f ops/s (multiclock/static)",
			seed, stFair, mcFair, mcLate, stLate)
		if stFair > 0.92 {
			t.Errorf("seed %d: static race not unfair enough: late/early = %.3f", seed, stFair)
		}
		if mcFair < stFair+0.05 {
			t.Errorf("seed %d: multiclock did not restore fairness: %.3f vs static %.3f", seed, mcFair, stFair)
		}
		// The late process itself must be better off under multiclock.
		if mcLate <= stLate {
			t.Errorf("seed %d: late process: multiclock %.0f ≤ static %.0f", seed, mcLate, stLate)
		}
	}
}

func TestScaleParameters(t *testing.T) {
	q := Options{Quick: true}.scale()
	f := Options{}.scale()
	if q.Ops >= f.Ops {
		t.Fatal("quick mode must be smaller")
	}
	if q.Interval != f.Interval {
		t.Fatal("both modes share the operating interval (time-compression note)")
	}
	if f.Window != 20*f.Interval || q.Window != 20*q.Interval {
		t.Fatal("telemetry window must be 20 intervals (≙ the paper's 20 s)")
	}
	if f.PMPages <= f.DRAMPages {
		t.Fatal("PM must dwarf DRAM")
	}
}

// --- Fig. 6 shape ---

func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	t.Parallel()
	o := quickAt(1)
	sc := o.scale()
	var cells []cell
	for _, system := range []string{"static", "multiclock"} {
		for _, k := range gapbsKernels {
			cells = append(cells, kernelCell(sc, system, k))
		}
	}
	res := o.run(cells)
	n := len(gapbsKernels)
	for i, k := range gapbsKernels {
		// MULTI-CLOCK never loses badly on GAPBS (within noise of static
		// on the streaming kernels, clearly ahead where per-vertex state
		// spills) — §V-C.1's "smaller gains than YCSB" shape.
		if norm := res[n+i].seconds / res[i].seconds; norm > 1.08 {
			t.Errorf("kernel %s: multiclock %.3f× static (regression)", k, norm)
		}
		// At least one kernel shows a clear win (the paper's SSSP/PR story).
		if norm := res[n+i].seconds / res[i].seconds; k == "PR" && norm > 0.95 {
			t.Errorf("PR gain missing: %.3f× static", norm)
		}
	}
}

func TestTable2Inventory(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	out, err := Table2(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range []string{"internal/core", "internal/lru", "internal/mem", "TOTAL"} {
		if !strings.Contains(out, pkg) {
			t.Fatalf("inventory missing %q:\n%s", pkg, out)
		}
	}
	if _, err := FindModuleRoot("/"); err == nil {
		t.Fatal("module root found at filesystem root")
	}
}
