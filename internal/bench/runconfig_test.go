package bench

import (
	"reflect"
	"strings"
	"testing"

	"multiclock/internal/fault"
	"multiclock/internal/machine"
	"multiclock/internal/mem"
	"multiclock/internal/metrics"
	"multiclock/internal/sim"
	"multiclock/internal/ycsb"
)

// TestStraightAndSteppedRunsAreTheSameMachine: one RunConfig driven straight
// through (Machine + NewYCSB + Load + Run, what the experiments do) and
// stepped op by op in a Session (what every mcsim YCSB run does) must
// simulate the same machine: same virtual time, same op count, same memory
// counters, same telemetry. Before the run description was unified the
// stepping path built a 1 µs-OpCost machine with a seed^0x9c5b client while
// mcsim's straight path used the facade's 1.5 µs and the default client
// seed, so the check-only flags changed the result.
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

// nopObserver is an extra observer that keeps no state.
type nopObserver struct{}

func (nopObserver) OnAccess(*mem.Page, bool, sim.Time)                    {}
func (nopObserver) OnMigrate(*mem.Page, mem.NodeID, mem.NodeID, sim.Time) {}
func (nopObserver) OnFault(*mem.Page, bool, sim.Time)                     {}

// TestSessionRefusesUnserializableSinks: a session runs with any sink or
// extra observer attached, but their state is not in MCSNAP, so it refuses
// to be captured or fingerprinted rather than write a snapshot that drops
// them.
func TestSessionRefusesUnserializableSinks(t *testing.T) {
	for _, tc := range []struct {
		sinks Sinks
		obs   []machine.Observer
	}{
		{sinks: Sinks{Series: sim.Millisecond}}, {sinks: Sinks{Lifecycle: 1}}, {sinks: Sinks{Trace: true}},
		{obs: []machine.Observer{nopObserver{}}},
	} {
		rc := testSoakConfig("multiclock", false)
		rc.Metrics, rc.Sinks = true, tc.sinks
		rc.Ops = 500
		s, err := NewSession(rc, tc.obs...)
		if err != nil {
			t.Fatalf("NewSession with %+v: %v", tc, err)
		}
		if _, err := s.Run(SoakHooks{InvariantsEvery: 100}); err != nil {
			t.Fatalf("%+v: Run: %v", tc, err)
		}
		if _, err := s.Capture(); err == nil || !strings.Contains(err.Error(), "not serializable") {
			t.Errorf("Capture with %+v: err = %v, want a refusal", tc, err)
		}
		if _, err := s.Fingerprint(); err == nil || !strings.Contains(err.Error(), "not serializable") {
			t.Errorf("Fingerprint with %+v: err = %v, want a refusal", tc, err)
		}
	}
	rc := testSoakConfig("multiclock", false)
	rc.Tiers = "hbm:64"
	if _, err := NewSession(rc); err == nil || !strings.Contains(err.Error(), `unknown tier "hbm"`) {
		t.Errorf("bad tier spec: err = %v", err)
	}
}
