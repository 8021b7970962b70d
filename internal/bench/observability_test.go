package bench

import (
	"bytes"
	"strings"
	"testing"

	"multiclock/internal/fault"
	"multiclock/internal/metrics"
	"multiclock/internal/sim"
	"multiclock/internal/slo"
	"multiclock/internal/traceexport"
)

// runFig10Observed runs the quick Fig. 10 sweep with the full observability
// stack riding the metrics pool and returns (report text, export JSON).
func runFig10Observed(t *testing.T, parallel int) (string, []byte) {
	t.Helper()
	pool := metrics.NewPool(0)
	out := mustRun(t, "fig10", Options{
		Quick: true, Seed: 1, Parallel: parallel,
		Metrics: pool,
		Sinks:   Sinks{Series: 10 * sim.Millisecond, Lifecycle: 64},
	})
	data, err := pool.ExportJSON()
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	return out, data
}

// TestObservedExportDeterministicAcrossParallelism is the PR's acceptance
// golden: with the sampler and tracer enabled, both the experiment report
// and the full metrics export (series and lifecycle sections included) are
// byte-identical at every parallelism level, because instrumentation is
// strictly per-machine and sampling is a pure function of page identity.
func TestObservedExportDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep")
	}
	seqOut, seqJSON := runFig10Observed(t, 1)
	parOut, parJSON := runFig10Observed(t, 4)
	if seqOut != parOut {
		t.Fatal("fig10 report differs across parallelism with observability on")
	}
	if !bytes.Equal(seqJSON, parJSON) {
		t.Fatal("observability export differs across parallelism")
	}
	ex, err := metrics.ReadExport(seqJSON)
	if err != nil {
		t.Fatalf("export does not validate: %v", err)
	}
	withSeries, withSpans := 0, 0
	for _, r := range ex.Runs {
		if r.Series != nil && len(r.Series.Windows) > 0 {
			withSeries++
		}
		if r.Lifecycle != nil {
			withSpans++
		}
	}
	if withSeries != len(ex.Runs) || withSpans != len(ex.Runs) {
		t.Fatalf("sections missing: %d/%d series, %d/%d lifecycle",
			withSeries, len(ex.Runs), withSpans, len(ex.Runs))
	}
}

// TestObservabilityDoesNotMoveTheReport: the experiment's stdout with
// series+lifecycle enabled must equal the uninstrumented report — the
// observability layer must not shift a single virtual-time result.
func TestObservabilityDoesNotMoveTheReport(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep")
	}
	plain := mustRun(t, "fig10", Options{Quick: true, Seed: 1, Parallel: 4})
	observed, _ := runFig10Observed(t, 4)
	if plain != observed {
		t.Fatal("enabling observability changed the fig10 report")
	}
}

// runFig10ChaosTraced runs the quick Fig. 10 sweep under fault injection
// with the whole trace/SLO stack on and returns (perfetto trace, export
// JSON).
func runFig10ChaosTraced(t *testing.T, parallel int) ([]byte, []byte) {
	t.Helper()
	pool := metrics.NewPool(65536)
	// Deliberately unmeetable: every PM read exceeds 1ns, so the burn rate
	// pegs and the multi-window alert must fire.
	objectives, err := slo.Parse("p99(access_latency_pm_read_ns) < 1ns over 1ms, 99.9%")
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, "fig10", Options{
		Quick: true, Seed: 1, Parallel: parallel,
		Chaos:   fault.UniformRate(42, 0.05),
		Metrics: pool,
		Sinks:   Sinks{Series: 10 * sim.Millisecond, Lifecycle: 64, SLO: objectives, Trace: true},
	})
	data, err := pool.ExportJSON()
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	return traceexport.Build(pool.Runs()), data
}

// TestChaosTimelineGolden is the PR's acceptance fixture: a chaos run's
// exported virtual-time timeline visibly contains per-page lifecycle spans,
// daemon wakeup passes, migrations with tier labels, injected-fault windows
// and at least one SLO burn-rate alert — and both the trace and the export
// are byte-identical across parallelism levels.
func TestChaosTimelineGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep")
	}
	trace, data := runFig10ChaosTraced(t, 1)
	trace4, data4 := runFig10ChaosTraced(t, 4)
	if !bytes.Equal(trace, trace4) {
		t.Fatal("perfetto trace differs across parallelism")
	}
	if !bytes.Equal(data, data4) {
		t.Fatal("metrics export differs across parallelism with slo/trace on")
	}
	s := string(trace)
	for _, want := range []string{
		`"thread_name","args":{"name":"daemon `, // daemon track metadata
		` pass"`,                                // a daemon wakeup pass span
		`"thread_name","args":{"name":"page `,   // lifecycle page track
		`"name":"promote"`,                      // a migration instant...
		`"to_tier":"dram"`,                      // ...labeled with its tier
		`"name":"injected faults"`,              // injected-fault track
		`"name":"burn-rate alert"`,              // the SLO alert span
		`"name":"slo p99(access_latency_pm_read_ns) < 1ns over 1ms, 99.9%"`,
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("timeline missing %q", want)
		}
	}
	// At least one injected degradation window made it onto tid 210.
	if !strings.Contains(s, `"tid":210,"ts"`) {
		t.Fatal("no injected-fault window rendered")
	}

	// The export's slo section reconciles with the timeline: the objective
	// is violated and carries the alert the trace shows.
	ex, err := metrics.ReadExport(data)
	if err != nil {
		t.Fatalf("export does not validate: %v", err)
	}
	alerts := 0
	for _, r := range ex.Runs {
		if r.SLO == nil {
			t.Fatalf("run %s missing slo section", r.Label)
		}
		for _, o := range r.SLO.Objectives {
			if o.Met {
				t.Fatalf("run %s: unmeetable objective reported met", r.Label)
			}
			alerts += len(o.Alerts)
		}
		if r.Faults == nil || len(r.Faults.Windows) == 0 {
			t.Fatalf("run %s recorded no injected-fault windows", r.Label)
		}
	}
	if alerts == 0 {
		t.Fatal("no burn-rate alert fired anywhere in the sweep")
	}
}

// TestInstrumentRequiresPool: Series/Lifecycle without a pool are inert —
// an uninstrumented run must not panic or allocate samplers.
func TestInstrumentRequiresPool(t *testing.T) {
	out := fig2(Options{Quick: true, Seed: 1, Sinks: Sinks{Series: 10 * sim.Millisecond, Lifecycle: 1}})
	if !strings.Contains(out, "fig2") && len(out) == 0 {
		t.Fatal("fig2 with orphan observability flags produced nothing")
	}
}
