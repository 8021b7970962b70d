package slo

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"multiclock/internal/metrics"
	"multiclock/internal/sim"
)

func TestParseCanonicalRoundTrip(t *testing.T) {
	cases := []struct {
		in, canonical string
	}{
		{
			"p99(access_latency_dram_read_ns) < 400ns over 10ms, 99.9%",
			"p99(access_latency_dram_read_ns) < 400ns over 10ms, 99.9%",
		},
		{
			// Defaulted compliance target, loose spacing.
			"p50(migration_latency_ns)<2us over 1ms",
			"p50(migration_latency_ns) < 2µs over 1ms, 99.9%",
		},
		{
			// Fractional quantile, multiple objectives, stray separators.
			" p99.9(daemon_pass_work_ns) < 1ms over 100ms, 95% ; p90(x_ns) < 500ns over 5ms ;",
			"p99.9(daemon_pass_work_ns) < 1ms over 100ms, 95%; p90(x_ns) < 500ns over 5ms, 99.9%",
		},
	}
	for _, c := range cases {
		sp, err := Parse(c.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		if got := sp.String(); got != c.canonical {
			t.Fatalf("Parse(%q).String() = %q, want %q", c.in, got, c.canonical)
		}
		// The canonical form is a fixed point.
		again, err := Parse(sp.String())
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", sp.String(), err)
		}
		if again.String() != c.canonical {
			t.Fatalf("canonical form is not a fixed point: %q", again.String())
		}
	}
}

func TestParseRejects(t *testing.T) {
	for _, in := range []string{
		"",
		" ; ",
		"p99(x) < 400ns",                      // missing window
		"p99 x < 400ns over 10ms",             // missing metric parens
		"p0(x) < 400ns over 10ms",             // quantile at 0
		"p100(x) < 400ns over 10ms",           // quantile at 100
		"p99(x) < abc over 10ms",              // bad threshold
		"p99(x) < 400ns over abc",             // bad window
		"p99(x) < 400ns over 10ms, 0%",        // zero compliance target
		"p99(x) < 400ns over 10ms, 101%",      // compliance target over 100
		"p99(Access) < 400ns over 10ms",       // uppercase metric
		"p99(x) < 400ns over 10ms, 99.9% foo", // trailing garbage
	} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) accepted", in)
		}
	}
}

// buildRun drives one synthetic scenario: per 1ms window, 100 samples of
// which bad[i] are far above the 1000ns threshold. Returns the exported
// section.
func buildRun(t *testing.T, bad []int) *metrics.SLOExport {
	t.Helper()
	clock := sim.NewClock()
	reg := metrics.NewRegistry(0)
	sp, err := Parse("p99(lat_ns) < 1000ns over 1ms")
	if err != nil {
		t.Fatal(err)
	}
	eng := New(clock, reg, sp, 0)
	h := reg.Histogram("lat_ns")
	for _, nbad := range bad {
		for i := 0; i < 100-nbad; i++ {
			h.Observe(100) // bucket [64,127]: entirely under the threshold
		}
		for i := 0; i < nbad; i++ {
			h.Observe(1_000_000) // bucket [524288,1048575]: entirely over
		}
		clock.Advance(1 * sim.Millisecond)
	}
	eng.Stop()
	out := eng.Export()
	if err := metrics.ValidateSLOSections(out, nil); err != nil {
		t.Fatalf("export does not validate: %v", err)
	}
	return out
}

func TestEngineComplianceTally(t *testing.T) {
	// 6 clean windows, 3 heavily violating, 1 clean.
	out := buildRun(t, []int{0, 0, 0, 0, 0, 0, 50, 50, 50, 0})
	if len(out.Objectives) != 1 {
		t.Fatalf("objectives = %d", len(out.Objectives))
	}
	o := out.Objectives[0]
	if o.Windows != 10 || o.CompliantWindows != 7 {
		t.Fatalf("windows %d/%d compliant, want 7/10", o.CompliantWindows, o.Windows)
	}
	if o.TotalEvents != 1000 || o.BadEvents != 150 {
		t.Fatalf("events %d/%d, want 150/1000", o.BadEvents, o.TotalEvents)
	}
	if o.CompliancePPM != 700_000 || o.Met {
		t.Fatalf("compliance %d ppm met=%v, want 700000/false", o.CompliancePPM, o.Met)
	}
	// Whole-run burn: 15% bad against a 1% budget = 15×.
	if o.BudgetBurnMilli != 15_000 {
		t.Fatalf("budget burn %d milli, want 15000", o.BudgetBurnMilli)
	}
}

func TestBurnRateAlertMergesConsecutiveWindows(t *testing.T) {
	out := buildRun(t, []int{0, 0, 0, 0, 0, 0, 50, 50, 50, 0})
	o := out.Objectives[0]
	if len(o.Alerts) != 1 {
		t.Fatalf("alerts = %+v, want one merged interval", o.Alerts)
	}
	a := o.Alerts[0]
	// Fires at window 6 (fast 50×, slow over windows 1-6 = 8.33×) through
	// window 8; window 9's fast burn is 0.
	if a.StartNS != 6_000_000 || a.EndNS != 9_000_000 || a.Windows != 3 {
		t.Fatalf("alert = %+v, want [6ms, 9ms) over 3 windows", a)
	}
	if a.PeakFastBurnMilli != 50_000 {
		t.Fatalf("peak fast burn %d, want 50000", a.PeakFastBurnMilli)
	}
	if a.PeakSlowBurnMilli < o.BurnThresholdMilli {
		t.Fatalf("peak slow burn %d below threshold", a.PeakSlowBurnMilli)
	}
}

func TestSlowBurnGateSuppressesIsolatedSpike(t *testing.T) {
	// One window with 7% bad: fast burn 7× clears the threshold, but the
	// slow (6-window) burn is 7/600 bad ≈ 1.17× — no alert.
	out := buildRun(t, []int{0, 0, 0, 0, 0, 7, 0, 0})
	o := out.Objectives[0]
	if len(o.Alerts) != 0 {
		t.Fatalf("isolated spike alerted: %+v", o.Alerts)
	}
	// The spike window itself is still non-compliant.
	if o.CompliantWindows != 7 {
		t.Fatalf("compliant windows %d, want 7", o.CompliantWindows)
	}
}

func TestEmptyWindowsAreCompliant(t *testing.T) {
	out := buildRun(t, []int{0, 0, 0}) // wait: every window has 100 good samples
	clockOnly := buildRunNoTraffic(t, 5)
	for _, o := range append(out.Objectives, clockOnly.Objectives...) {
		if o.CompliantWindows != o.Windows || !o.Met {
			t.Fatalf("clean run not fully compliant: %+v", o)
		}
	}
	if o := clockOnly.Objectives[0]; o.TotalEvents != 0 || o.BudgetBurnMilli != 0 {
		t.Fatalf("zero-traffic run tallied events: %+v", o)
	}
}

// buildRunNoTraffic advances n windows with no samples at all.
func buildRunNoTraffic(t *testing.T, n int) *metrics.SLOExport {
	t.Helper()
	clock := sim.NewClock()
	reg := metrics.NewRegistry(0)
	sp, err := Parse("p99(lat_ns) < 1000ns over 1ms")
	if err != nil {
		t.Fatal(err)
	}
	eng := New(clock, reg, sp, 0)
	clock.Advance(sim.Duration(n) * sim.Millisecond)
	eng.Stop()
	out := eng.Export()
	if err := metrics.ValidateSLOSections(out, nil); err != nil {
		t.Fatalf("export does not validate: %v", err)
	}
	if out.Objectives[0].Windows != n {
		t.Fatalf("windows = %d, want %d", out.Objectives[0].Windows, n)
	}
	return out
}

func TestExportSynthesizesTrailingPartialWindow(t *testing.T) {
	clock := sim.NewClock()
	reg := metrics.NewRegistry(0)
	sp, _ := Parse("p99(lat_ns) < 1000ns over 1ms")
	eng := New(clock, reg, sp, 0)
	h := reg.Histogram("lat_ns")
	clock.Advance(1 * sim.Millisecond) // one full, empty window
	h.Observe(5_000)                   // lands in the partial window
	clock.Advance(300 * sim.Microsecond)
	o := eng.Export().Objectives[0]
	if o.Windows != 2 {
		t.Fatalf("windows = %d, want full + partial", o.Windows)
	}
	if o.TotalEvents != 1 || o.BadEvents != 1 {
		t.Fatalf("partial window events %d/%d, want 1/1", o.BadEvents, o.TotalEvents)
	}
	// Export is repeatable and does not mutate the engine.
	again := eng.Export().Objectives[0]
	if again.Windows != 2 || again.TotalEvents != 1 {
		t.Fatalf("second export diverged: %+v", again)
	}
	eng.Stop()
}

func TestEngineNeverAdvancesVirtualTime(t *testing.T) {
	run := func(withSLO bool) sim.Time {
		clock := sim.NewClock()
		reg := metrics.NewRegistry(0)
		var eng *Engine
		if withSLO {
			sp, _ := Parse("p99(lat_ns) < 1000ns over 700us; p50(lat_ns) < 100ns over 1ms")
			eng = New(clock, reg, sp, 0)
		}
		h := reg.Histogram("lat_ns")
		for i := 0; i < 10; i++ {
			h.Observe(int64(i) * 100)
			clock.Advance(500 * sim.Microsecond)
		}
		if eng != nil {
			eng.Stop()
		}
		clock.Drain()
		return clock.Now()
	}
	if a, b := run(false), run(true); a != b {
		t.Fatalf("SLO engine moved the clock: %v vs %v", a, b)
	}
}

func TestExportDeterministicBytes(t *testing.T) {
	render := func() []byte {
		out := buildRun(t, []int{0, 3, 0, 50, 50, 0, 0, 9})
		b, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if a, b := render(), render(); !bytes.Equal(a, b) {
		t.Fatal("equal runs exported different slo bytes")
	}
}

func TestFormatReport(t *testing.T) {
	out := buildRun(t, []int{0, 0, 0, 0, 0, 0, 50, 50, 50, 0})
	got := Format("mcsim/multiclock", out)
	for _, want := range []string{
		"mcsim/multiclock",
		"spec: p99(lat_ns) < 1µs over 1ms, 99.9%",
		"VIOLATED",
		"windows: 7/10 compliant (70%, target 99.9%)",
		"events: 150/1000 over threshold; budget burn 15.00x",
		"[6ms, 9ms) 3 windows, peak fast 50.00x",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("report missing %q:\n%s", want, got)
		}
	}
	clean := buildRunNoTraffic(t, 3)
	if rep := Format("x", clean); !strings.Contains(rep, "alerts: none") || !strings.Contains(rep, "MET") {
		t.Fatalf("clean report:\n%s", rep)
	}
}

// FuzzParse feeds the -slo grammar arbitrary text: nothing panics, every
// objective of an accepted spec is inside the bounds the engine relies on,
// and the canonical text parses back to the same spec.
func FuzzParse(f *testing.F) {
	for _, spec := range []string{
		"p99(access_latency_dram_read_ns) < 400ns over 10ms, 99.9%",
		"p50(a) < 1us over 1ms; p99.99(b_2) < 2h over 1h, 100%", ";;", "", "p99(a) < 1ns over 1ms;",
		"p100(a) < 1ns over 1ms", "p0(a) < 1ns over 1ms", "p99(a) < -1ns over 1ms", "p99(a) < 1ns over 0s",
		"p99(a) < 1ns over 1ms, 0%", "p99(a) < 1ns over 1ms, 100.1%", "p99(A) < 1ns over 1ms",
		"p99.99999(a) < 1ns over 1ms", "p99(a) < 9999999h over 1ms", "p99(a)<1.5us  over  2.5ms ,5%",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, text string) {
		sp, err := Parse(text)
		if err != nil {
			return
		}
		if len(sp.Objectives) == 0 {
			t.Fatalf("Parse(%q) accepted a spec with no objectives", text)
		}
		for _, o := range sp.Objectives {
			if o.Metric == "" || o.QuantilePPM <= 0 || o.QuantilePPM >= 1_000_000 || o.ThresholdNS <= 0 ||
				o.WindowNS <= 0 || o.TargetPPM <= 0 || o.TargetPPM > 1_000_000 || o.BurnThresholdMilli <= 0 {
				t.Fatalf("Parse(%q) accepted objective %+v", text, o)
			}
		}
		again, err := Parse(sp.String())
		if err != nil || !reflect.DeepEqual(again, sp) {
			t.Fatalf("Parse(%q) = %+v, but its canonical text %q parses to %+v, %v", text, sp, sp.String(), again, err)
		}
	})
}
