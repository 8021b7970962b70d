package bench

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"multiclock/internal/graph"
	"multiclock/internal/kvstore"
	"multiclock/internal/machine"
	"multiclock/internal/metrics"
	"multiclock/internal/runner"
	"multiclock/internal/sim"
	"multiclock/internal/ycsb"
)

// The golden fixtures pin the access engine's observable output — reports
// and metrics exports — so fast-path changes (batching, allocation reuse,
// devirtualized dispatch) can be proven not to move a single virtual-time
// result. The fixtures were captured before the fast path landed; any
// optimization that changes a byte here changed simulation behavior.
//
// Regenerate (only for intentional behavior changes) with:
//
//	go test ./internal/bench -run TestGoldenAccessEngine -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite the golden access-engine fixtures")

// goldenScale is a compact grid: big enough to exercise faulting, cache
// filtering, aging, promotion/demotion and swap pressure, small enough to
// run in a few seconds.
func goldenScale(pool *metrics.Pool) scale {
	return scale{
		Interval:       10 * sim.Millisecond,
		DRAMPages:      512,
		PMPages:        4096,
		Records:        4000,
		OpsPerWorkload: 40_000,
		Window:         200 * sim.Millisecond,
		Metrics:        pool,
		MetricsPrefix:  "golden/",
		Sinks:          Sinks{Series: 20 * sim.Millisecond, Lifecycle: 31},
	}
}

// goldenYCSB runs the given workloads on a fresh instrumented machine and
// reports virtual-timeline results plus the full counter set.
func goldenYCSB(sc scale, system string, huge bool, workloads []ycsb.Workload) string {
	label := system
	if huge {
		label += "-huge"
	}
	p, err := NewPolicy(system, sc.Interval)
	if err != nil {
		panic(err)
	}
	m := sc.machineWith(1, p)
	sc.instrument(m, label)
	storeCfg := kvstore.DefaultConfig(int(sc.Records))
	storeCfg.ItemTouches = 8
	storeCfg.HugeArena = huge
	store := kvstore.New(m, storeCfg)
	clientCfg := ycsb.DefaultClientConfig(sc.Records)
	clientCfg.Seed = 0x9c5b
	client := ycsb.NewClient(m, store, clientCfg)
	client.Load()
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", label)
	for _, w := range workloads {
		res := client.Run(w, sc.OpsPerWorkload)
		fmt.Fprintf(&b, "%s: tp=%.3f ops=%d p50=%v p95=%v p99=%v mean=%v\n",
			w.Name, res.Throughput, res.Ops, res.P50, res.P95, res.P99, res.MeanLatency)
	}
	fmt.Fprintf(&b, "%s\nelapsed=%v ops=%d\n", m.Mem.Counters.String(), m.Elapsed(), m.Ops)
	stopDaemons(p)
	return b.String()
}

// goldenGAPBS runs a small PageRank whose CSR exceeds DRAM.
func goldenGAPBS(sc scale, system string) string {
	p, err := NewPolicy(system, sc.Interval)
	if err != nil {
		panic(err)
	}
	gsc := sc
	gsc.DRAMPages = 256
	gsc.PMPages = 2048
	m := gsc.machineWith(1, p)
	sc.instrument(m, system+"-pr")
	g := graph.Generate(m, graph.GenConfig{Vertices: 4000, Degree: 4, Kronecker: true, Seed: 1})
	m.AbsorbTax()
	start := m.Clock.Now()
	g.PageRank(2)
	var b strings.Builder
	fmt.Fprintf(&b, "== %s-pr ==\n", system)
	fmt.Fprintf(&b, "PR: time=%v\n%s\nelapsed=%v\n",
		sim.Duration(m.Clock.Now()-start), m.Mem.Counters.String(), m.Elapsed())
	stopDaemons(p)
	return b.String()
}

// goldenPattern drives the Fig. 1 rubis pattern (cache-hit heavy, compound
// phase behavior) on an instrumented machine.
func goldenPattern(sc scale, system string) string {
	p, err := NewPolicy(system, sc.Interval)
	if err != nil {
		panic(err)
	}
	gsc := sc
	gsc.DRAMPages = 256
	gsc.PMPages = 2048
	m := gsc.machineWith(1, p)
	sc.instrument(m, system+"-pattern")
	as := m.NewSpace()
	runPattern(m, as, patterns[0], 100*sim.Millisecond, 7)
	var b strings.Builder
	fmt.Fprintf(&b, "== %s-pattern ==\n%s\nelapsed=%v ops=%d\n",
		system, m.Mem.Counters.String(), m.Elapsed(), m.Ops)
	stopDaemons(p)
	return b.String()
}

// goldenGrid runs the fixed cell set at the given parallelism and returns
// the concatenated report plus the canonical metrics export. Each cell is
// an independent single-threaded machine, so both outputs must be
// byte-identical at every parallelism level.
func goldenGrid(parallel int) (string, []byte) {
	pool := metrics.NewPool(16)
	sc := goldenScale(pool)
	cells := []struct {
		name string
		run  func() string
	}{
		{"multiclock", func() string {
			return goldenYCSB(sc, "multiclock", false, []ycsb.Workload{ycsb.WorkloadA, ycsb.WorkloadD})
		}},
		{"nimble", func() string {
			return goldenYCSB(sc, "nimble", false, []ycsb.Workload{ycsb.WorkloadA})
		}},
		{"static", func() string {
			return goldenYCSB(sc, "static", false, []ycsb.Workload{ycsb.WorkloadA})
		}},
		{"multiclock-huge", func() string {
			return goldenYCSB(sc, "multiclock", true, []ycsb.Workload{ycsb.WorkloadA})
		}},
		{"multiclock-pr", func() string { return goldenGAPBS(sc, "multiclock") }},
		{"multiclock-pattern", func() string { return goldenPattern(sc, "multiclock") }},
	}
	outs := runner.Map(parallel, cells, func(i int, c struct {
		name string
		run  func() string
	}) string {
		return c.run()
	})
	report := strings.Join(outs, "\n")
	data, err := pool.ExportJSON()
	if err != nil {
		panic(err)
	}
	return report, data
}

func goldenPath(name string) string {
	return filepath.Join("testdata", name)
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := goldenPath(name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture %s (run with -update-golden): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: output diverged from the golden fixture (%d vs %d bytes).\n"+
			"The access engine changed observable behavior; if intentional, regenerate with -update-golden.\n"+
			"first divergence at byte %d", name, len(got), len(want), firstDiff(got, want))
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestGoldenAccessEngine proves reports and metrics exports are
// byte-identical to the checked-in pre-fast-path fixtures, at -parallel 1,
// 2 and 4.
func TestGoldenAccessEngine(t *testing.T) {
	report, export := goldenGrid(1)
	checkGolden(t, "golden_report.txt", []byte(report))
	checkGolden(t, "golden_metrics.json", export)
	if *updateGolden {
		return
	}
	for _, par := range []int{2, 4} {
		r, e := goldenGrid(par)
		if r != report {
			t.Errorf("-parallel %d report differs from sequential run (first divergence at byte %d)",
				par, firstDiff([]byte(r), []byte(report)))
		}
		if !bytes.Equal(e, export) {
			t.Errorf("-parallel %d metrics export differs from sequential run (first divergence at byte %d)",
				par, firstDiff(e, export))
		}
	}
}

var _ = machine.DefaultConfig
