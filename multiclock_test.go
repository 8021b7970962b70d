package multiclock

import (
	"strings"
	"testing"

	"multiclock/internal/mem"
)

func TestNewSystemDefaults(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Stop()
	if sys.PolicyName() != "multiclock" {
		t.Fatalf("default policy = %q", sys.PolicyName())
	}
	if sys.Elapsed() != 0 {
		t.Fatal("fresh system has elapsed time")
	}
	if sys.Machine() == nil || sys.Counters() == nil {
		t.Fatal("accessors")
	}
}

func TestEveryPolicyConstructs(t *testing.T) {
	for _, p := range Policies() {
		sys := NewSystem(Config{Policy: p, DRAMPages: 256, PMPages: 1024})
		if sys.PolicyName() != string(p) {
			t.Fatalf("policy %q built %q", p, sys.PolicyName())
		}
		sys.Stop()
	}
}

func TestUnknownPolicyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewSystem(Config{Policy: "bogus"})
}

func TestQuickstartFlow(t *testing.T) {
	sys := NewSystem(Config{
		Policy:       PolicyMultiClock,
		DRAMPages:    1024,
		PMPages:      8192,
		ScanInterval: 10 * Millisecond,
		Seed:         7,
	})
	defer sys.Stop()
	store := sys.NewKVStore(4000)
	client := sys.NewYCSB(store, 4000)
	client.Load()
	res := client.Run(WorkloadA, 20000)
	if res.Ops != 20000 || res.Throughput <= 0 {
		t.Fatalf("run result: %+v", res)
	}
	if sys.DRAMHitRatio() <= 0 {
		t.Fatal("no DRAM hits recorded")
	}
}

func TestMultiClockOutperformsStaticViaFacade(t *testing.T) {
	run := func(p Policy) float64 {
		sys := NewSystem(Config{
			Policy:       p,
			DRAMPages:    512,
			PMPages:      8192,
			ScanInterval: 5 * Millisecond,
			Seed:         3,
		})
		defer sys.Stop()
		store := sys.NewKVStore(8000)
		client := sys.NewYCSB(store, 8000)
		client.Load()
		// Warm, then measure.
		client.Run(WorkloadA, 60000)
		return client.Run(WorkloadA, 60000).Throughput
	}
	static := run(PolicyStatic)
	mc := run(PolicyMultiClock)
	if mc <= static {
		t.Fatalf("multiclock %.0f ≤ static %.0f — headline result missing", mc, static)
	}
}

func TestGraphViaFacade(t *testing.T) {
	sys := NewSystem(Config{Policy: PolicyStatic, DRAMPages: 1024, PMPages: 4096})
	defer sys.Stop()
	g := sys.NewGraph(GraphConfig{Vertices: 2000, Degree: 4, Kronecker: true, Seed: 1})
	if g.N != 2000 {
		t.Fatal("graph size")
	}
	parent := g.BFS(0)
	if len(parent) != 2000 {
		t.Fatal("bfs result")
	}
	if sys.Elapsed() <= 0 {
		t.Fatal("graph work cost no time")
	}
}

func TestPromotionTracker(t *testing.T) {
	sys := NewSystem(Config{DRAMPages: 256, PMPages: 1024, ScanInterval: 5 * Millisecond})
	defer sys.Stop()
	tr := sys.NewPromotionTracker(100 * Millisecond)
	sys.Attach(tr)
	store := sys.NewKVStore(3000)
	client := sys.NewYCSB(store, 3000)
	client.Load()
	client.Run(WorkloadA, 50000)
	if tr.TotalPromotions() == 0 {
		t.Fatal("tracker saw no promotions on an oversubscribed multiclock system")
	}
}

func TestWorkloadReexports(t *testing.T) {
	if WorkloadA.Name != "A" || WorkloadW.UpdateProp != 1 {
		t.Fatal("workload re-exports")
	}
	names := ""
	for _, w := range PaperSequence {
		names += w.Name
	}
	if names != "ABCFWD" {
		t.Fatal("sequence re-export")
	}
}

func TestExperimentsRegistry(t *testing.T) {
	names := Experiments()
	want := []string{"fig1", "fig2", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "table1"}
	have := strings.Join(names, ",")
	for _, w := range want {
		if !strings.Contains(have, w) {
			t.Fatalf("experiment %q missing from %v", w, names)
		}
	}
	if _, err := RunExperiment("nope", true); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunExperimentTable1(t *testing.T) {
	out, err := RunExperiment("table1", true)
	if err != nil || !strings.Contains(out, "multiclock") {
		t.Fatalf("table1: %v\n%s", err, out)
	}
}

func TestExtensionPolicies(t *testing.T) {
	for _, p := range ExtensionPolicies() {
		sys := NewSystem(Config{Policy: p, DRAMPages: 128, PMPages: 512})
		name := sys.PolicyName()
		if base, gated := strings.CutSuffix(string(p), "-gated"); gated {
			// Gated variants report their admission controller, e.g.
			// "multiclock+bandwidth-gate(5%/1.000s)".
			if !strings.HasPrefix(name, base+"+") {
				t.Fatalf("gated extension %q built %q, want %q prefix", p, name, base+"+")
			}
		} else if name != string(p) {
			t.Fatalf("extension %q built %q", p, name)
		}
		sys.Stop()
	}
}

func TestFileCacheViaFacade(t *testing.T) {
	sys := NewSystem(Config{Policy: PolicyStatic, DRAMPages: 256, PMPages: 512})
	defer sys.Stop()
	fc := sys.NewFileCache()
	f := fc.Open("x", 4)
	f.ReadRange(0, 4)
	if f.Resident() != 4 {
		t.Fatal("file cache via facade broken")
	}
}

func TestNUMATopologyViaFacade(t *testing.T) {
	top, err := mem.ParseTopology("dram:64,dram:64,pm:256,pm:256")
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(Config{Tiers: &top})
	defer sys.Stop()
	if got := len(sys.Machine().Mem.Nodes); got != 4 {
		t.Fatalf("nodes = %d, want 4", got)
	}
}
