package bench

import (
	"reflect"
	"strings"
	"testing"

	"multiclock/internal/fault"
	"multiclock/internal/metrics"
	"multiclock/internal/sim"
	"multiclock/internal/ycsb"
)

// TestStraightAndSteppedRunsAreTheSameMachine: one RunConfig driven straight
// through (Machine + NewYCSB + Load + Run, what mcsim and the experiments
// do) and stepped op by op in a Session (what -snapshot/-invariants-every and
// mcbench -soak do) must simulate the same machine: same virtual time, same
// op count, same memory counters, same telemetry. Before the run description
// was unified the stepping path built a 1 µs-OpCost machine with a
// seed^0x9c5b client while mcsim's straight path used the facade's 1.5 µs
// and the default client seed, so the check-only flags changed the result.
func TestStraightAndSteppedRunsAreTheSameMachine(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*RunConfig)
	}{
		{"default pair", func(*RunConfig) {}},
		{"chaos", func(rc *RunConfig) { rc.Chaos = fault.UniformRate(42, 0.02) }},
		{"three tiers", func(rc *RunConfig) { rc.Tiers = "dram:64,cxl:128,pm:1024"; rc.Policy = "nomad" }},
		{"sequence", func(rc *RunConfig) { rc.Workloads = []string{"A", "F", "D"}; rc.Ops = 2_000 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rc := testSoakConfig("multiclock", false)
			rc.Metrics, rc.TraceEvents = true, 32
			tc.edit(&rc)

			m, err := rc.Machine()
			if err != nil {
				t.Fatal(err)
			}
			collector, fill := rc.Attach(m)
			_, client := rc.NewYCSB(m)
			client.Load()
			var results []ycsb.RunResult
			for _, name := range rc.Workloads {
				w, _ := ycsb.ByName(name)
				results = append(results, client.Run(w, rc.Ops))
			}
			straight := collector.Run("x")
			fill(&straight)

			s, err := NewSession(rc)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(SoakHooks{InvariantsEvery: 1000}); err != nil {
				t.Fatal(err)
			}
			if s.M.Elapsed() != m.Elapsed() || s.M.Ops != m.Ops {
				t.Errorf("virtual time %v / %d ops stepped, %v / %d straight", s.M.Elapsed(), s.M.Ops, m.Elapsed(), m.Ops)
			}
			if got, want := s.M.Mem.Counters.String(), m.Mem.Counters.String(); got != want {
				t.Errorf("mem counters differ\nstepped:  %s\nstraight: %s", got, want)
			}
			if !reflect.DeepEqual(s.results, results) {
				t.Errorf("workload results differ\nstepped:  %+v\nstraight: %+v", s.results, results)
			}
			a, _ := metrics.ExportJSON(*s.MetricsRun("x"))
			b, _ := metrics.ExportJSON(straight)
			if string(a) != string(b) {
				t.Error("metrics exports differ between the stepped and the straight run")
			}
		})
	}
}

// TestSessionRefusesUnserializableSinks: a requested sink is attached or
// refused, never silently dropped — a checkpointable session cannot carry
// the one-shot samplers.
func TestSessionRefusesUnserializableSinks(t *testing.T) {
	for _, sinks := range []Sinks{{Series: sim.Millisecond}, {Lifecycle: 1}, {Trace: true}} {
		rc := testSoakConfig("multiclock", false)
		rc.Metrics, rc.Sinks = true, sinks
		if _, err := NewSession(rc); err == nil || !strings.Contains(err.Error(), "not serializable") {
			t.Errorf("NewSession with %+v: err = %v, want a refusal", sinks, err)
		}
	}
	rc := testSoakConfig("multiclock", false)
	rc.Tiers = "hbm:64"
	if _, err := NewSession(rc); err == nil || !strings.Contains(err.Error(), `unknown tier "hbm"`) {
		t.Errorf("bad tier spec: err = %v", err)
	}
}

// TestSoakConfigForFollowsTheScale: the soak recipe is the experiment scale's
// run description over the paper sequence — sizing, interval, seed, fault
// campaign and hierarchy come from the Options, nothing is restated.
func TestSoakConfigForFollowsTheScale(t *testing.T) {
	opt := Options{Quick: true, Seed: 9, Chaos: fault.UniformRate(3, 0.01), Tiers: "dram:512,pm:4096"}
	sc := opt.scale()
	rc := SoakConfigFor("nimble", opt, 0)
	want := RunConfig{
		Policy: "nimble", Workloads: []string{"A", "B", "C", "F", "W", "D"},
		Records: sc.Records, Ops: sc.Ops, DRAMPages: sc.DRAMPages, PMPages: sc.PMPages,
		Tiers: opt.Tiers, Interval: sc.Interval, Seed: 9, Chaos: opt.Chaos,
	}
	if !reflect.DeepEqual(rc, want) {
		t.Errorf("SoakConfigFor = %+v\nwant %+v", rc, want)
	}
	if got := SoakConfigFor("nimble", opt, 777).Ops; got != 777 {
		t.Errorf("op override: Ops = %d, want 777", got)
	}
}
