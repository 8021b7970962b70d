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

	"multiclock/internal/sim"
)

var quickOpt = Options{Quick: true, Seed: 1}

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
	if _, err := Run("nope", quickOpt); err == nil {
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

func ycsbShape(t *testing.T) (map[string]map[string]float64, scale) {
	t.Helper()
	sc := quickOpt.scale()
	results := map[string]map[string]float64{}
	for _, system := range SystemNames {
		results[system] = ycsbRun(sc, system, false).Throughput
	}
	return results, sc
}

func TestFig5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	t.Parallel()
	results, _ := ycsbShape(t)
	workloads := []string{"A", "B", "C", "F", "W", "D"}
	for _, w := range workloads {
		static := results["static"][w]
		mc := results["multiclock"][w]
		nb := results["nimble"][w]
		cpm := results["at-cpm"][w]
		opm := results["at-opm"][w]
		// MULTI-CLOCK outperforms static tiering on every workload.
		if mc <= static {
			t.Errorf("workload %s: multiclock %.0f ≤ static %.0f", w, mc, static)
		}
		// MULTI-CLOCK outperforms Nimble's recency-only selection, except
		// on D, where the two tie (checked below).
		if w != "D" && mc <= nb {
			t.Errorf("workload %s: multiclock %.0f ≤ nimble %.0f", w, mc, nb)
		}
		// MULTI-CLOCK far outperforms AT-CPM (paper: 260-677%).
		if mc < 1.3*cpm {
			t.Errorf("workload %s: multiclock %.0f not ≫ at-cpm %.0f", w, mc, cpm)
		}
		// MULTI-CLOCK outperforms AT-OPM (paper: 10-352%).
		if mc <= opm {
			t.Errorf("workload %s: multiclock %.0f ≤ at-opm %.0f", w, mc, opm)
		}
		// AT-OPM beats AT-CPM (history-driven demotion headroom).
		if opm <= cpm {
			t.Errorf("workload %s: at-opm %.0f ≤ at-cpm %.0f", w, opm, cpm)
		}
	}
	// Workload D is MULTI-CLOCK's best case vs static (paper: +132%, the
	// maximum across workloads).
	best, bestW := 0.0, ""
	for _, w := range workloads {
		gain := results["multiclock"][w] / results["static"][w]
		if gain > best {
			best, bestW = gain, w
		}
	}
	if bestW != "D" && bestW != "W" {
		t.Errorf("largest multiclock gain on %s (%.3f), expected D (or W)", bestW, best)
	}
	// On D, MULTI-CLOCK and Nimble tie (EXPERIMENTS.md, deviation 4): at
	// quick scale the multiclock/nimble ratio of seeds 1–5 reads 1.004,
	// 0.986, 0.978, 0.999 and 0.963, so an ordering would assert a coin
	// flip. The check is a tie band over seeds 1–3; the extra seeds run only
	// the two systems it compares.
	const dTieBand = 0.05
	for seed := uint64(1); seed <= 3; seed++ {
		mc, nb := results["multiclock"]["D"], results["nimble"]["D"]
		if seed != 1 {
			sc := Options{Quick: true, Seed: seed}.scale()
			mc, nb = ycsbRun(sc, "multiclock", false).Throughput["D"], ycsbRun(sc, "nimble", false).Throughput["D"]
		}
		if r := mc / nb; math.Abs(r-1) > dTieBand {
			t.Errorf("workload D, seed %d: multiclock/nimble = %.3f, outside the ±%.0f%% tie band", seed, r, 100*dTieBand)
		}
	}
}

// --- Figs. 8/9 shape: promotion count and quality ---

func TestPromotionTelemetryShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	t.Parallel()
	mc, nb, _ := promotionTelemetry(quickOpt, "")
	// Nimble promotes more pages (Fig. 8)...
	if nb.Tracker.TotalPromotions() <= mc.Tracker.TotalPromotions() {
		t.Errorf("nimble promotions %d ≤ multiclock %d",
			nb.Tracker.TotalPromotions(), mc.Tracker.TotalPromotions())
	}
	// ...but a smaller fraction of them are re-accessed (Fig. 9; paper
	// reports ≈15 points of difference).
	mcRe := mc.Tracker.MeanReaccessPercent()
	nbRe := nb.Tracker.MeanReaccessPercent()
	if mcRe <= nbRe {
		t.Errorf("multiclock re-access %.1f%% ≤ nimble %.1f%%", mcRe, nbRe)
	}
	if mcRe-nbRe < 5 {
		t.Errorf("re-access gap %.1f points, want a clear margin", mcRe-nbRe)
	}
}

// --- Fig. 10 shape: interval sensitivity ---

func TestFig10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	t.Parallel()
	sc := quickOpt.scale()
	at := func(interval sim.Duration) scale {
		cell := sc
		cell.Interval = interval
		return cell
	}
	base := ycsbSteadyWorkloadA(sc, "static")
	atOperating := ycsbSteadyWorkloadA(sc, "multiclock")
	tooFast := ycsbSteadyWorkloadA(at(sc.Interval/10), "multiclock")
	tooSlow := ycsbSteadyWorkloadA(at(60*sc.Interval), "multiclock")
	if atOperating <= base {
		t.Errorf("operating point %.0f ≤ static %.0f", atOperating, base)
	}
	// Scanning 10× too often pays overhead (§V-E context switches).
	if tooFast >= atOperating {
		t.Errorf("10× faster scanning %.0f ≥ operating %.0f", tooFast, atOperating)
	}
	// Scanning 60× too rarely lags the workload.
	if tooSlow >= atOperating {
		t.Errorf("60× slower scanning %.0f ≥ operating %.0f", tooSlow, atOperating)
	}
}

// --- Fig. 2 shape ---

func TestFig2Shape(t *testing.T) {
	out := Fig2(quickOpt)
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
	out := Fig1(quickOpt)
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

func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	t.Parallel()
	sc := quickOpt.scale()
	sc.Records = int64(16 * sc.DRAMPages)
	static := ycsbRun(sc, "static", false).Throughput
	mc := ycsbRun(sc, "multiclock", false).Throughput
	mm := ycsbRun(sc, "memory-mode", false).Throughput
	for _, w := range []string{"A", "D"} {
		// Both beat static at 4× footprint; multiclock is competitive
		// with memory-mode (paper: within 2%, up to 9% better).
		if mc[w] <= static[w] || mm[w] <= static[w] {
			t.Errorf("workload %s: mc %.0f / mm %.0f vs static %.0f", w, mc[w], mm[w], static[w])
		}
		if mc[w] < 0.95*mm[w] {
			t.Errorf("workload %s: multiclock %.0f far below memory-mode %.0f", w, mc[w], mm[w])
		}
	}
}

// --- GAPBS sanity (full Fig. 6 is exercised by the root benchmarks) ---

func TestGAPBSKernelRunnersProduceTime(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	t.Parallel()
	sc := quickOpt.scale()
	sc.GraphVertices = 8000
	sc.GraphDegree = 4
	for _, k := range gapbsKernels {
		tm := gapbsKernelTime(sc, "static", k)
		if tm <= 0 {
			t.Errorf("kernel %s reported no time", k)
		}
	}
}

func TestGAPBSUnknownKernelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	sc := quickOpt.scale()
	sc.GraphVertices = 100
	sc.GraphDegree = 2
	gapbsKernelTime(sc, "static", "WAT")
}

// --- Ablations ---

func TestAblationWriteAwareShowsBenefit(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	t.Parallel()
	out := AblationWriteAware(quickOpt)
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
	batch := row(AblationScanBatch(quickOpt), "1024 ")
	promote := row(AblationPromoteList(quickOpt), "recency+frequency (multiclock)")
	if !slices.Equal(batch, promote) {
		t.Errorf("batch=1024 cell reads %v, the promote-list multiclock cell %v", batch, promote)
	}
}

// --- multi-process allocation race (§II-D motivation) ---

func TestMultiProcFairnessShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	t.Parallel()
	sc := quickOpt.scale()
	stEarly, stLate := multiProcRun(sc, "static")
	mcEarly, mcLate := multiProcRun(sc, "multiclock")
	stFair := stLate / stEarly
	mcFair := mcLate / mcEarly
	if stFair > 0.92 {
		t.Errorf("static race not unfair enough: late/early = %.3f", stFair)
	}
	if mcFair < stFair+0.05 {
		t.Errorf("multiclock did not restore fairness: %.3f vs static %.3f", mcFair, stFair)
	}
	// The late process itself must be better off under multiclock.
	if mcLate <= stLate {
		t.Errorf("late process: multiclock %.0f ≤ static %.0f", mcLate, stLate)
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
	sc := quickOpt.scale()
	kernels := []string{"BFS", "SSSP", "PR", "CC", "BC", "TC"}
	for _, k := range kernels {
		static := gapbsKernelTime(sc, "static", k)
		mc := gapbsKernelTime(sc, "multiclock", k)
		norm := mc / static
		// MULTI-CLOCK never loses badly on GAPBS (within noise of static
		// on the streaming kernels, clearly ahead where per-vertex state
		// spills) — §V-C.1's "smaller gains than YCSB" shape.
		if norm > 1.08 {
			t.Errorf("kernel %s: multiclock %.3f× static (regression)", k, norm)
		}
	}
	// At least one kernel shows a clear win (the paper's SSSP/PR story).
	prStatic := gapbsKernelTime(sc, "static", "PR")
	prMC := gapbsKernelTime(sc, "multiclock", "PR")
	if prMC/prStatic > 0.95 {
		t.Errorf("PR gain missing: %.3f× static", prMC/prStatic)
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
