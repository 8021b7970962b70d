package multiclock

import (
	"bytes"
	"strings"
	"testing"

	"multiclock/internal/bench"
	"multiclock/internal/mem"
	"multiclock/internal/metrics"
	"multiclock/internal/sim"
)

// ycsbA drives workload A on a small oversubscribed system, optionally with
// metrics collection, and returns the collector (nil when disabled) and the
// stopped system.
func ycsbA(seed uint64, traceEvents int, enable bool) (*Metrics, *System) {
	sys := NewSystem(Config{DRAMPages: 256, PMPages: 1024, ScanInterval: 5 * Millisecond, Seed: seed})
	var col *Metrics
	if enable {
		col = sys.EnableMetrics(traceEvents)
	}
	store := sys.NewKVStore(3000)
	client := sys.NewYCSB(store, 3000)
	client.Load()
	client.Run(WorkloadA, 50000)
	sys.Stop()
	return col, sys
}

// TestMetricsExportGolden is the determinism contract: two same-seed
// instrumented runs must export byte-identical JSON, the document must
// validate, and the two headline histograms must hold samples.
func TestMetricsExportGolden(t *testing.T) {
	col1, _ := ycsbA(7, 128, true)
	col2, _ := ycsbA(7, 128, true)
	b1, err := ExportMetricsJSON(col1.Run("ycsb-a"))
	if err != nil {
		t.Fatal(err)
	}
	b2, err := ExportMetricsJSON(col2.Run("ycsb-a"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("same-seed metrics exports differ")
	}
	ex, err := metrics.ReadExport(b1)
	if err != nil {
		t.Fatalf("export does not validate: %v", err)
	}
	hists := map[string]metrics.HistExport{}
	for _, h := range ex.Runs[0].Histograms {
		hists[h.Name] = h
	}
	for _, name := range []string{metrics.HistMigrationLatency, metrics.HistDaemonPassWork} {
		if hists[name].N == 0 {
			t.Fatalf("histogram %q recorded no samples", name)
		}
	}
	if tr := ex.Runs[0].Trace; tr == nil || len(tr.Events) == 0 {
		t.Fatal("event trace is empty")
	}
}

// TestMetricsDisabledIsNoOp: enabling metrics must not move the simulation —
// virtual time and every vmstat counter match a metrics-free run exactly.
func TestMetricsDisabledIsNoOp(t *testing.T) {
	_, plain := ycsbA(3, 0, false)
	_, inst := ycsbA(3, 256, true)
	if plain.Elapsed() != inst.Elapsed() {
		t.Fatalf("metrics changed virtual time: %v vs %v", plain.Elapsed(), inst.Elapsed())
	}
	var names []string
	var want []int64
	plain.Counters().Each(func(name string, v int64) {
		names = append(names, name)
		want = append(want, v)
	})
	i := 0
	inst.Counters().Each(func(name string, v int64) {
		if name != names[i] || v != want[i] {
			t.Fatalf("counter %s: %d with metrics vs %d without", name, v, want[i])
		}
		i++
	})
}

// TestLifecycleSectionOmittedWhenOff: a run without the optional sections
// serializes without their keys, so exports of plain runs stay byte-stable.
func TestLifecycleSectionOmittedWhenOff(t *testing.T) {
	sys := NewSystem(Config{DRAMPages: 256, PMPages: 1024, Seed: 5})
	defer sys.Stop()
	col := sys.EnableMetrics(0)
	store := sys.NewKVStore(1000)
	client := sys.NewYCSB(store, 1000)
	client.Load()
	b, err := ExportMetricsJSON(col.Run("plain"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), `"series"`) || strings.Contains(string(b), `"lifecycle"`) {
		t.Fatal("disabled observability leaked into the export")
	}
}

// TestMultipleObservers attaches a PromotionTracker and a metrics collector
// simultaneously; both must see the full event stream.
func TestMultipleObservers(t *testing.T) {
	sys := NewSystem(Config{DRAMPages: 256, PMPages: 1024, ScanInterval: 5 * Millisecond, Seed: 11})
	defer sys.Stop()
	col := sys.EnableMetrics(0)
	tracker := sys.NewPromotionTracker(100 * Millisecond)
	sys.Attach(tracker)
	store := sys.NewKVStore(3000)
	client := sys.NewYCSB(store, 3000)
	client.Load()
	client.Run(WorkloadA, 50000)

	promos := sys.Counters().Promotions
	if promos == 0 {
		t.Fatal("no promotions on an oversubscribed multiclock system")
	}
	if got := tracker.TotalPromotions(); int64(got) != promos {
		t.Fatalf("tracker saw %d promotions, machine counted %d", got, promos)
	}
	if got := col.Registry().Counter("promotions").Value(); got != promos {
		t.Fatalf("collector counted %d promotions, machine counted %d", got, promos)
	}
	if col.Registry().Histogram(metrics.HistMigrationLatency).N() == 0 {
		t.Fatal("collector histograms empty while tracker is attached")
	}
}

// faultCounter is a minimal observer for the detach test.
type faultCounter struct{ faults int }

func (f *faultCounter) OnAccess(pg *mem.Page, write bool, now sim.Time)         {}
func (f *faultCounter) OnMigrate(pg *mem.Page, from, to mem.NodeID, n sim.Time) {}
func (f *faultCounter) OnFault(pg *mem.Page, hint bool, now sim.Time)           { f.faults++ }

func TestAttachDetach(t *testing.T) {
	sys := NewSystem(Config{DRAMPages: 256, PMPages: 1024, Seed: 5})
	defer sys.Stop()
	obs := &faultCounter{}
	detach := sys.Attach(obs)

	store := sys.NewKVStore(1000)
	client := sys.NewYCSB(store, 1000)
	client.Load()
	if obs.faults == 0 {
		t.Fatal("attached observer saw no faults during load")
	}
	seen := obs.faults
	detach()
	detach() // second detach is a harmless no-op
	client.Run(WorkloadA, 5000)
	if obs.faults != seen {
		t.Fatal("detached observer still receives events")
	}
}

func TestParsePolicy(t *testing.T) {
	// The facade's named constants are exactly the policy table.
	all := append(Policies(), ExtensionPolicies()...)
	names := bench.PolicyNames()
	if len(all) != len(names) {
		t.Fatalf("facade lists %d policies, the table %d", len(all), len(names))
	}
	for i, p := range all {
		if string(p) != names[i] {
			t.Errorf("facade policy %d is %q, the table's is %q", i, p, names[i])
		}
		got, err := ParsePolicy(string(p))
		if err != nil || got != p {
			t.Fatalf("ParsePolicy(%q) = %q, %v", p, got, err)
		}
	}
	if _, err := ParsePolicy("clockwork"); err == nil {
		t.Fatal("unknown policy parsed")
	}
}

// TestScanIntervalDefaultShared: a zero ScanInterval and an explicit 1 s
// must build identical systems — the defaulting rule lives in one place.
func TestScanIntervalDefaultShared(t *testing.T) {
	run := func(interval Duration) int64 {
		sys := NewSystem(Config{DRAMPages: 256, PMPages: 1024, Seed: 9, ScanInterval: interval})
		defer sys.Stop()
		store := sys.NewKVStore(2000)
		client := sys.NewYCSB(store, 2000)
		client.Load()
		client.Run(WorkloadB, 20000)
		return int64(sys.Elapsed())
	}
	if a, b := run(0), run(1*Second); a != b {
		t.Fatalf("defaulted interval diverges from explicit 1s: %d vs %d", a, b)
	}
}
