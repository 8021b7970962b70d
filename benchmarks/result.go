package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// metricSpec names one metric; the tables below are the single source for
// BENCHMARK.json (-manifest prints it), the emitted results and -compare.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the baseline's median by which an end-to-end
	// metric may worsen. For simulated metrics it only has to cover the
	// movement between seeds: at one seed they repeat exactly and -compare
	// compares them exactly.
	Bound float64 `json:"bound"`
	// exact marks metrics that repeat exactly for a seed (simulated time,
	// counts, ratios of counts).
	exact bool
}

const (
	higher = "higher"
	lower  = "lower"
)

var endToEndSpecs = []metricSpec{
	// Bounds are calibrated (README, "Calibration"): at least three times
	// the widest spread seen over ten seeds on any workload. The host this
	// was measured on drifts by tens of percent over minutes, which no
	// estimator inside one 30 s run can see, so the host-time bounds sit at
	// the contract's ceiling.
	{Name: "host_accesses_per_sec", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: lower, Bound: 0.15},
	{Name: "sim_elapsed_ms", Unit: "sim_ms", Better: lower, Bound: 0.05, exact: true},
	{Name: "sim_speedup_vs_static", Unit: "x", Better: higher, Bound: 0.05, exact: true},
	{Name: "fast_tier_hit_ratio", Unit: "ratio", Better: higher, Bound: 0.05, exact: true},
}

// perLayer is built once from the layer tables below.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	specs := func(unit, better string, isExact bool, names []string) []metricSpec {
		var out []metricSpec
		for _, n := range names {
			out = append(out, metricSpec{Name: n, Unit: unit, Better: better, exact: isExact})
		}
		return out
	}
	// count and exact repeat exactly for a seed; host is host time or a
	// share of it, lower always better.
	count := func(better string, names ...string) []metricSpec { return specs("count", better, true, names) }
	exact := func(unit, better string, names ...string) []metricSpec { return specs(unit, better, true, names) }
	host := func(unit string, names ...string) []metricSpec { return specs(unit, lower, false, names) }
	var all []metricSpec
	add := func(specs ...[]metricSpec) {
		for _, s := range specs {
			all = append(all, s...)
		}
	}
	add(
		// ycsb
		count(higher, "ycsb.ops"), host("ns", "ycsb.chooser_ns_per_key", "ycsb.self_ns_per_op"),
		// kvstore
		count(higher, "kvstore.ops"), exact("ratio", lower, "kvstore.accesses_per_op"), host("ns", "kvstore.self_ns_per_op"),
		// graph
		count(higher, "graph.edges_traversed"), exact("ratio", lower, "graph.accesses_per_edge"),
		host("ns", "graph.self_ns_per_edge"), host("s", "graph.build_s"),
		// pagecache
		count(higher, "pagecache.reads", "pagecache.writes"), exact("ratio", lower, "pagecache.miss_ratio"),
		count(higher, "pagecache.flushed_pages"), host("ns", "pagecache.self_ns_per_op"),
		// pagetable
		count(higher, "pagetable.lookups"), host("ns", "pagetable.lookup_ns", "pagetable.install_unmap_ns"),
		// machine
		count(higher, "machine.accesses"), exact("ratio", higher, "machine.cache_filtered_ratio"),
		count(lower, "machine.minor_faults"), exact("1/k", lower, "machine.faults_per_kaccess"),
		count(lower, "machine.hint_faults"),
		host("ns", "machine.replay_ns_per_access", "machine.nullpolicy_ns_per_access",
			"machine.nocache_ns_per_access", "machine.self_ns_per_access", "machine.access_cached_ns",
			"machine.access_resident_ns", "machine.fault_unmap_ns", "machine.migrate_roundtrip_ns"),
		// core
		count(higher, "core.access_calls"), host("ns", "core.access_ns_per_call"),
		count(lower, "core.kpromoted_passes"), host("ns", "core.kpromoted_ns_per_pass"), host("ratio", "core.kpromoted_host_share"),
		count(lower, "core.pressure_calls"), host("ratio", "core.pressure_host_share"),
		count(lower, "core.direct_reclaim_calls"), host("ratio", "core.direct_reclaim_host_share"),
		count(higher, "core.promotions"), count(lower, "core.demotions", "core.promote_attempts"),
		exact("ratio", higher, "core.promote_success_ratio"), count(lower, "core.pages_scanned"),
		exact("ratio", lower, "core.scanned_per_promotion"), host("ns", "core.host_ns_per_scanned_page"),
		exact("1/k", lower, "core.migrations_per_kaccess"),
		// lru
		host("ns", "lru.scan_cycle_ns_per_page", "lru.mark_accessed_ns", "lru.add_delete_ns"),
		count(higher, "lru.promote_list_len_end", "lru.active_len_end", "lru.inactive_len_end"),
		// mem
		count(lower, "mem.allocs", "mem.frees", "mem.migrate_fails", "mem.swap_outs", "mem.swap_ins"),
		exact("sim_ms", lower, "mem.migration_busy_sim_ms"), host("ns", "mem.alloc_free_ns", "mem.migrate_ns"),
		// sim
		count(lower, "sim.daemon_passes"), host("ratio", "sim.daemon_host_share"),
		host("ns", "sim.advance_ns", "sim.schedule_fire_ns"),
		// sinks
		host("%", "metrics.overhead_pct"), host("ms", "metrics.export_ms"),
		host("%", "lifecycle.overhead_pct", "timeseries.overhead_pct", "slo.overhead_pct", "traceexport.overhead_pct"),
		host("ms", "traceexport.render_ms"), exact("sim_ns", lower, "sinks.sim_shift_ns"),
		// snapshot
		host("ms", "snapshot.capture_ms", "snapshot.restore_ms"), exact("B", lower, "snapshot.bytes"),
	)
	// policy + runner
	for _, p := range policyNames {
		add(exact("sim_us", lower, "policy."+p+".sim_elapsed_us"))
	}
	for _, p := range policyNames {
		add(host("ns", "policy."+p+".host_ns_per_access"))
	}
	add(host("s", "runner.sweep_wall_s_p1", "runner.sweep_wall_s_pN"),
		// the benchmark's own tracing, and host allocation (in the issue's
		// end-to-end list; here because they sit near 0 on gapbs-pr, where
		// a relative bound means nothing)
		host("%", "trace.overhead_pct"), count(lower, "trace.spans"),
		host("1/k", "host.allocs_per_kaccess"), host("B", "host.alloc_bytes_per_access"))
	return all
}

// runSeconds is BENCHMARK.json's run_seconds and -seconds' default.
const runSeconds = 16

// manifest renders BENCHMARK.json from the tables.
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerSpec struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string     `json:"command"`
		Paths      []string     `json:"paths"`
		RunSeconds int          `json:"run_seconds"`
		Workloads  []wl         `json:"workloads"`
		EndToEnd   []metricSpec `json:"end_to_end"`
		PerLayer   []layerSpec  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmarks/bench.sh"},
		Paths:      []string{"benchmarks"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEndSpecs,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, s := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerSpec{s.Name, s.Unit, s.Better})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// resultSchema identifies the suite's result file.
const resultSchema = "multiclock/benchmarks/v1"

// environment is recorded in every result file: host-time numbers mean
// nothing without it.
type environment struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func currentEnvironment() environment {
	env := environment{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		s := bufio.NewScanner(f)
		for s.Scan() {
			if rest, ok := strings.CutPrefix(s.Text(), "model name"); ok {
				env.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
		f.Close()
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range info.Settings {
			if kv.Key == "vcs.revision" {
				env.Commit = kv.Value
			}
		}
	}
	return env
}

// metricResult is one end-to-end metric of one workload in a result file.
type metricResult struct {
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	Exact  bool    `json:"exact"`
	summary
}

type layerResult struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Exact bool    `json:"exact"`
}

type workloadResult struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// SimDigest is fnv-1a over the measured region's mem.Counters deltas
	// and the clock, in hex: equal digests mean equal simulations.
	SimDigest    string                  `json:"sim_digest"`
	OpsAttempted int64                   `json:"ops_attempted"`
	OpsFailed    int64                   `json:"ops_failed"`
	OpsFailedPct float64                 `json:"ops_failed_pct"`
	Failures     []string                `json:"failures,omitempty"`
	EndToEnd     map[string]metricResult `json:"end_to_end"`
	PerLayer     map[string]layerResult  `json:"per_layer,omitempty"`
}

type resultFile struct {
	Schema string      `json:"schema"`
	Env    environment `json:"env"`
	Seed   uint64      `json:"seed"`
	Scale  string      `json:"scale"`
	// Validated is false: the repository holds no hardware reference for
	// the latency model, so simulated results carry no error figure.
	Validated bool             `json:"validated"`
	Workloads []workloadResult `json:"workloads"`
}

func (w *workloadResult) addEndToEnd(e endToEnd) {
	w.SimDigest = fmt.Sprintf("%016x", e.digest)
	w.EndToEnd = map[string]metricResult{}
	for _, spec := range endToEndSpecs {
		w.EndToEnd[spec.Name] = metricResult{Unit: spec.Unit, Better: spec.Better, Bound: spec.Bound, Exact: spec.exact, summary: e.metrics[spec.Name]}
	}
	w.addChecks(e.checks)
}

func (w *workloadResult) addTraced(t tracedPass) {
	w.PerLayer = map[string]layerResult{}
	for _, spec := range perLayer {
		w.PerLayer[spec.Name] = layerResult{Value: t.layer[spec.Name], Unit: spec.Unit, Exact: spec.exact}
	}
	w.addChecks(t.checks)
}

func (w *workloadResult) addChecks(c checks) {
	w.OpsAttempted += c.attempted
	w.OpsFailed += c.failed
	w.OpsFailedPct = 100 * ratio(float64(w.OpsFailed), float64(w.OpsAttempted))
	w.Failures = append(w.Failures, c.notes...)
}

// contractLine is the one JSON object a --trace run ends its output with.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int64                    `json:"attempted"`
	Failed    int64                    `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printWorkload prints every metric the result holds by name, with unit,
// direction and, end to end, bound and distribution.
func printWorkload(out io.Writer, w workloadResult) {
	fmt.Fprintf(out, "== %s  sim_digest=%s  checks: %d attempted, %d failed (%.4g%%)\n", w.Name, w.SimDigest, w.OpsAttempted, w.OpsFailed, w.OpsFailedPct)
	for _, note := range w.Failures {
		fmt.Fprintf(out, "   FAILED: %s\n", note)
	}
	if w.EndToEnd != nil {
		fmt.Fprintf(out, "   %-26s %-6s %-7s %-6s %14s %3s %14s %14s %14s %14s\n", "end-to-end metric", "unit", "better", "bound", "value", "n", "median", "q1", "q3", "min")
		for _, spec := range endToEndSpecs {
			m := w.EndToEnd[spec.Name]
			bound := fmt.Sprintf("%.0f%%", 100*m.Bound)
			if m.Exact {
				bound += "*"
			}
			fmt.Fprintf(out, "   %-26s %-6s %-7s %-6s %14.6g %3d %14.6g %14.6g %14.6g %14.6g\n", spec.Name, m.Unit, m.Better, bound, m.Value, m.N, m.Median, m.Q1, m.Q3, m.Min)
		}
		fmt.Fprintln(out, "   (* repeats exactly at one seed; the bound covers movement between seeds)")
	}
	if w.PerLayer != nil {
		fmt.Fprintf(out, "   %-40s %-6s %-7s %16s\n", "per-layer metric", "unit", "better", "value")
		for _, spec := range perLayer {
			fmt.Fprintf(out, "   %-40s %-6s %-7s %16.6g\n", spec.Name, spec.Unit, spec.Better, w.PerLayer[spec.Name].Value)
		}
	}
}

// finite reports whether every emitted number is one.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
