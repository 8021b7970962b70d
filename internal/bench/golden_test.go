package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
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
		RunConfig: RunConfig{
			DRAMPages: 512, PMPages: 4096, Records: 4000, Ops: 40_000,
			Interval: 10 * sim.Millisecond, Seed: 1,
			Sinks: Sinks{Series: 20 * sim.Millisecond, Lifecycle: 31},
		},
		Window: 200 * sim.Millisecond,
		Pool:   pool,
		Prefix: "golden/",
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
	m := sc.machineWith(p)
	instrument(sc.Pool, sc.Sinks, m, sc.Prefix+label)
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
		res := client.Run(w, sc.Ops)
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
	m := gsc.machineWith(p)
	instrument(sc.Pool, sc.Sinks, m, sc.Prefix+system+"-pr")
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
	m := gsc.machineWith(p)
	instrument(sc.Pool, sc.Sinks, m, sc.Prefix+system+"-pattern")
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

// checkGolden compares got with the named fixture, or rewrites the fixture
// under -update-golden. Either way it names the parts that changed (see
// goldenChanges), so an intentional change shows how far it reaches; under
// -update-golden the list is logged (go test -v prints it).
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := goldenPath(name)
	want, err := os.ReadFile(path)
	if *updateGolden {
		if changes := goldenChanges(name, want, got); err == nil && len(changes) > 0 {
			t.Logf("%s: rewriting %d changed parts:\n\t%s", name, len(changes), strings.Join(changes, "\n\t"))
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if err != nil {
		t.Fatalf("missing golden fixture %s (run with -update-golden): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		changes := goldenChanges(name, want, got)
		t.Errorf("%s: output diverged from the golden fixture (%d vs %d bytes).\n"+
			"The access engine changed observable behavior; if intentional, regenerate with -update-golden.\n"+
			"%d changed parts:\n\t%s", name, len(got), len(want), len(changes), strings.Join(changes, "\n\t"))
	}
}

// goldenChanges names what differs between a fixture and a new rendering of
// it: every "== label ==" block of a text golden, or every run label and
// section of a metrics export ("golden/nimble: lifecycle"). A block or run
// on one side only is named with "(added)" or "(removed)". An export that
// does not parse is compared as text.
func goldenChanges(name string, want, got []byte) []string {
	if strings.HasSuffix(name, ".json") {
		if changes, err := exportChanges(want, got); err == nil {
			return changes
		}
	}
	wantOrder, wantBlocks := textBlocks(want)
	gotOrder, gotBlocks := textBlocks(got)
	return changedNames(wantOrder, wantBlocks, gotOrder, gotBlocks, func(a, b string) bool { return a == b })
}

// textBlocks splits a text golden at its "== label ==" header lines; text
// before the first header is the block "".
func textBlocks(data []byte) (order []string, blocks map[string]string) {
	blocks = map[string]string{}
	label := ""
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if h := strings.TrimSuffix(line, "\n"); len(h) >= 6 && strings.HasPrefix(h, "== ") && strings.HasSuffix(h, " ==") {
			label = h[3 : len(h)-3]
		}
		if _, ok := blocks[label]; !ok && line != "" {
			order = append(order, label)
		}
		blocks[label] += line
	}
	return order, blocks
}

// exportChanges names the changed top-level fields and, per run label, the
// changed sections of two metrics exports.
func exportChanges(want, got []byte) ([]string, error) {
	wantOrder, wantParts, err := exportParts(want)
	if err != nil {
		return nil, err
	}
	gotOrder, gotParts, err := exportParts(got)
	if err != nil {
		return nil, err
	}
	changes := changedNames(wantOrder, wantParts, gotOrder, gotParts, jsonEqual)
	for i, name := range changes {
		// A run on both sides: name its changed sections too.
		wo, wf, werr := jsonFields(wantParts[name])
		gro, gf, gerr := jsonFields(gotParts[name])
		if werr == nil && gerr == nil {
			changes[i] += ": " + strings.Join(changedNames(wo, wf, gro, gf, jsonEqual), ", ")
		}
	}
	return changes, nil
}

// exportParts splits a metrics export into its top-level fields other than
// runs, then each run under its label.
func exportParts(data []byte) (order []string, parts map[string]json.RawMessage, err error) {
	order, parts, err = jsonFields(data)
	if err != nil {
		return nil, nil, err
	}
	var runs []json.RawMessage
	if err := json.Unmarshal(parts["runs"], &runs); err != nil {
		return nil, nil, err
	}
	delete(parts, "runs")
	order = slices.DeleteFunc(order, func(k string) bool { return k == "runs" })
	for _, run := range runs {
		var r struct{ Label string }
		if err := json.Unmarshal(run, &r); err != nil {
			return nil, nil, err
		}
		order = append(order, r.Label)
		parts[r.Label] = run
	}
	return order, parts, nil
}

// jsonFields decodes one JSON object into its members, keeping their
// document order.
func jsonFields(data []byte) (order []string, fields map[string]json.RawMessage, err error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return nil, nil, fmt.Errorf("not a JSON object (%v)", err)
	}
	fields = map[string]json.RawMessage{}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return nil, nil, err
		}
		key, _ := tok.(string)
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			return nil, nil, err
		}
		order = append(order, key)
		fields[key] = v
	}
	return order, fields, nil
}

func jsonEqual(a, b json.RawMessage) bool { return bytes.Equal(a, b) }

// changedNames lists the keys whose values differ between two keyed
// documents, in want's order, then the keys only got has. A key on one side
// only is suffixed "(removed)" or "(added)".
func changedNames[V any](wantOrder []string, want map[string]V, gotOrder []string, got map[string]V, same func(a, b V) bool) []string {
	var out []string
	for _, k := range wantOrder {
		if g, ok := got[k]; !ok {
			out = append(out, k+" (removed)")
		} else if !same(want[k], g) {
			out = append(out, k)
		}
	}
	for _, k := range gotOrder {
		if _, ok := want[k]; !ok {
			out = append(out, k+" (added)")
		}
	}
	return out
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

// TestGoldenExperiments pins the stdout of every registered experiment at
// quick scale and seed 1, one "== name ==" block each, so a refactor of the
// run layer can be proven not to move a printed figure. (table2 counts
// source lines and is not registered.) The experiments run through one cell
// cache, which then becomes the one the shape tests read; the test pins how
// many cells they ask for and how many are distinct. Regenerate only for
// intentional behaviour changes:
//
//	go test ./internal/bench -run TestGoldenExperiments -update-golden
func TestGoldenExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	cc := new(cellCache)
	o := quickAt(1)
	o.cache = cc
	var b strings.Builder
	Stream(Names(), o, nil, func(_ int, r runner.TaskResult[string]) {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Name, r.Err)
		}
		fmt.Fprintf(&b, "== %s ==\n%s\n", r.Name, r.Value)
	})
	checkGolden(t, "golden_experiments.txt", []byte(b.String()))
	testCells = cc

	// 96 machine runs are asked for, 80 of them distinct. The 16 repeats:
	// static, multiclock and nimble's YCSB sequence (fig5, bakeoff); the
	// tracked multiclock and nimble sequence (fig8, fig9); cold workload A
	// under static four more times and default multiclock five more
	// (ablation-promote, -batch's 1024, -amp, -granularity, -thp's base
	// cell, -ratio's 1:8); static and multiclock PageRank (fig6, fig7).
	// Every kernel cell asks for its edge list; one recipe serves them all.
	if n, d := cc.cells.requests, len(cc.cells.entries); n != 96 || d != 80 {
		t.Errorf("cells: %d requested, %d computed; want 96 and 80", n, d)
	}
	if n, d := cc.edges.requests, len(cc.edges.entries); n != 31 || d != 1 {
		t.Errorf("edge lists: %d requested, %d computed; want 31 and 1", n, d)
	}
}

var _ = machine.DefaultConfig

// TestGoldenChangesNamesEveryPart pins the divergence report: every changed,
// added or removed block of a text golden, and every changed section of each
// run of a metrics export.
func TestGoldenChangesNamesEveryPart(t *testing.T) {
	want := "== a ==\n1\n== b ==\n2\n== c ==\n3\n"
	got := "== a ==\n1\n== b ==\n20\n== d ==\n4\n"
	if ch := strings.Join(goldenChanges("x.txt", []byte(want), []byte(got)), "; "); ch != "b; c (removed); d (added)" {
		t.Errorf("text golden: changes %q", ch)
	}
	wantJSON := `{"version":1,"runs":[{"label":"r1","counters":[1],"lifecycle":{"a":1}},{"label":"r2","counters":[2]}]}`
	gotJSON := `{"version":1,"runs":[{"label":"r1","counters":[1],"lifecycle":{"a":2},"series":{}},{"label":"r3","counters":[2]}]}`
	if ch := strings.Join(goldenChanges("x.json", []byte(wantJSON), []byte(gotJSON)), "; "); ch != "r1: lifecycle, series (added); r2 (removed); r3 (added)" {
		t.Errorf("metrics export: changes %q", ch)
	}
	if ch := goldenChanges("x.json", []byte(want), []byte(got)); len(ch) != 3 {
		t.Errorf("an export that does not parse is compared as text: %q", ch)
	}
}
