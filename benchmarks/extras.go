package main

import (
	"fmt"
	"runtime"
	"time"

	"multiclock/internal/bench"
	"multiclock/internal/lifecycle"
	"multiclock/internal/machine"
	"multiclock/internal/metrics"
	"multiclock/internal/runner"
	"multiclock/internal/sim"
	"multiclock/internal/slo"
	"multiclock/internal/timeseries"
	"multiclock/internal/traceexport"
	"multiclock/internal/ycsb"
)

// Workload-independent measurements (isolated drivers, the per-sink cost
// table, checkpointing, the 14-policy sweep) would not fit four times into
// the traced pass's time budget, so each has one home workload whose
// --trace 1 run produces it; the other workloads report it as 0. Drivers
// live with the workload whose end-to-end speed their layer should move.
var driverHome = map[string][]string{
	"ycsb-a": {"ycsb.chooser_ns_per_key"},
	"gapbs-pr": {
		"machine.access_cached_ns", "sim.advance_ns", "core.access_ns_per_call",
	},
	"hotset-drift": {
		"lru.scan_cycle_ns_per_page", "mem.migrate_ns", "machine.migrate_roundtrip_ns",
		"sim.schedule_fire_ns", "machine.access_resident_ns",
	},
	"file-churn": {
		"pagetable.install_unmap_ns", "machine.fault_unmap_ns", "lru.mark_accessed_ns",
		"lru.add_delete_ns", "mem.alloc_free_ns",
	},
}

// runHomeDrivers runs the isolated drivers and sweeps whose home is w.
func runHomeDrivers(w workload, sc scale, seed uint64, out *tracedPass, set func(string, float64)) error {
	for _, name := range driverHome[w.name] {
		set(name, drivers[name](sc))
	}
	switch w.name {
	case "ycsb-a":
		return runSnapshot(sc, seed, set)
	case "gapbs-pr":
		runPolicySweep(sc, seed, out, set)
	}
	return nil
}

// lifecycleSample traces one page in 16: rendering every page's timeline
// (the default) takes the trace exporter over ten seconds at this size.
var lifecycleSample = lifecycle.Config{SampleMod: 16}

// sloSpec is an objective the run meets, so the engine does its per-window
// work without alert bookkeeping dominating.
const sloSpec = "p99(access_latency_pm_read_ns) < 3us over 1ms, 99%"

// sinkRuns is the per-sink cost table in progress: ycsb-a's traced-scale
// region once per sink, each with that sink attached from machine
// construction, to be stepped in lockstep with the sink-free reference.
type sinkRuns struct {
	names    []string
	sessions []*session

	// What the export timings need from the metrics run and from the
	// all-sinks run.
	metrics *metrics.Collector
	all     struct {
		m      *machine.Machine
		coll   *metrics.Collector
		series *timeseries.Sampler
		life   *lifecycle.Tracer
		engine *slo.Engine
	}
}

func beginSinks(w workload, sc scale, seed uint64) *sinkRuns {
	spec, err := slo.Parse(sloSpec)
	if err != nil {
		panic(err)
	}
	collect := func(m *machine.Machine, events int) *metrics.Collector {
		c := metrics.NewCollector(metrics.NewRegistry(events)).Bind(m)
		m.SetMetrics(c)
		m.Attach(c)
		return c
	}
	sr := &sinkRuns{}
	add := func(name string, attach func(m *machine.Machine)) {
		sr.names = append(sr.names, name)
		sr.sessions = append(sr.sessions, begin(w, sc, seed, buildOpts{traced: true, onMachine: attach}, nil))
	}
	add("metrics", func(m *machine.Machine) { sr.metrics = collect(m, 0) })
	add("lifecycle", func(m *machine.Machine) { lifecycle.New(lifecycleSample).Bind(m) })
	add("timeseries", func(m *machine.Machine) { timeseries.New(m, 200*sim.Millisecond, 0) })
	// The SLO engine reads the collector's histograms, so it runs on top of
	// a collector and is charged what it adds to the metrics run.
	add("slo", func(m *machine.Machine) { slo.New(m.Clock, collect(m, 0).Registry(), spec, 0) })
	// The trace export's inputs are every sink at once, with the event ring.
	add("traceexport", func(m *machine.Machine) {
		a := &sr.all
		a.m, a.coll = m, collect(m, 4096)
		a.series = timeseries.New(m, 200*sim.Millisecond, 0)
		a.life = lifecycle.New(lifecycleSample).Bind(m)
		a.engine = slo.New(m.Clock, a.coll.Registry(), spec, 0)
	})
	return sr
}

// report closes the sink runs: each sink's slowdown relative to ref, which
// was stepped in lockstep with them, and the two export timings. Sinks
// must be passive, so any movement of the simulated clock is a failed
// check.
func (sr *sinkRuns) report(ref rep, out *tracedPass, set func(string, float64)) {
	var shift int64
	rho := map[string]float64{}
	for i, name := range sr.names {
		r := sr.sessions[i].end()
		r.inst = nil
		out.absorb(r)
		d := r.simNS - ref.simNS
		if d < 0 {
			d = -d
		}
		shift += d
		out.expect(r.digest == ref.digest, "ycsb-a: sink %s moved the simulation: sim_digest %016x, %016x with sinks off", name, r.digest, ref.digest)
		rho[name] = relative(r.batchS, ref.batchS)
	}
	for _, name := range sr.names {
		base := 1.0
		if name == "slo" {
			base = rho["metrics"]
		}
		set(name+".overhead_pct", 100*(rho[name]-base))
	}
	set("sinks.sim_shift_ns", float64(shift))

	t0 := time.Now()
	_, err := metrics.ExportJSON(sr.metrics.Run("ycsb-a"))
	set("metrics.export_ms", since(t0)*1e3)
	out.expect(err == nil, "ycsb-a: metrics export: %v", err)

	a := &sr.all
	run := a.coll.Run("ycsb-a")
	run.Series = a.series.Export()
	run.Lifecycle = a.life.Export()
	run.SLO = a.engine.Export()
	run.Topology = metrics.TopologyOf(a.m)
	t0 = time.Now()
	rendered := traceexport.Build([]metrics.RunExport{run})
	set("traceexport.render_ms", since(t0)*1e3)
	out.expect(len(rendered) > 0, "ycsb-a: trace export rendered nothing")
}

// runSnapshot times checkpoint capture and restore of a ycsb-a system at
// the end of a run, through bench.Session.
func runSnapshot(sc scale, seed uint64, set func(string, float64)) error {
	ops := div(div(ycsbOps, sc.work), 40)
	s, err := bench.NewSession(bench.SoakConfig{
		Policy: "multiclock", Workloads: []string{"A"},
		Records: ycsbRecords, Ops: ops,
		DRAMPages: 1024, PMPages: 24_576,
		Interval: 10 * sim.Millisecond, Seed: seed,
	})
	if err != nil {
		return fmt.Errorf("snapshot session: %w", err)
	}
	s.RunUntil(ops - 1)
	t0 := time.Now()
	f, err := s.Capture()
	if err != nil {
		return fmt.Errorf("snapshot capture: %w", err)
	}
	set("snapshot.capture_ms", since(t0)*1e3)
	set("snapshot.bytes", float64(len(f.Encode())))
	t0 = time.Now()
	restored, err := bench.RestoreSession(f)
	if err != nil {
		return fmt.Errorf("snapshot restore: %w", err)
	}
	set("snapshot.restore_ms", since(t0)*1e3)
	for _, sess := range []*bench.Session{s, restored} {
		if _, err := sess.Finish(); err != nil {
			return fmt.Errorf("snapshot session finish: %w", err)
		}
	}
	return nil
}

// policyNames are the 14 policies bench.NewPolicy builds.
var policyNames = []string{
	"static", "multiclock", "nimble", "at-cpm", "at-opm", "memory-mode", "thermostat",
	"amp-lru", "amp-lfu", "amp-random", "nomad", "s3fifo", "multiclock-gated", "nimble-gated",
}

type sweepCell struct {
	simUS       float64
	nsPerAccess float64
}

// runPolicySweep runs YCSB A at 1/40 of ycsb-a's operations on every
// policy through runner.Map, sequentially and on every CPU. The simulated
// results pin that a change to shared policy code leaves the other 13
// policies where they were.
func runPolicySweep(sc scale, seed uint64, out *tracedPass, set func(string, float64)) {
	ops := div(div(ycsbOps, sc.work), 40)
	cell := func(_ int, name string) sweepCell {
		m, p := newMachine(1024, 24_576, 10*sim.Millisecond, seed, buildOpts{policy: name})
		defer stopPolicy(p)()
		_, client := newYCSB(m, seed)
		t0 := time.Now()
		client.Load()
		client.Run(ycsb.WorkloadA, ops)
		host := since(t0)
		c := &m.Mem.Counters
		return sweepCell{
			simUS:       float64(m.Clock.Now()) / 1e3,
			nsPerAccess: host * 1e9 / float64(c.TotalAccesses()+c.CacheFiltered),
		}
	}
	t0 := time.Now()
	seq := runner.Map(1, policyNames, cell)
	set("runner.sweep_wall_s_p1", since(t0))
	t0 = time.Now()
	par := runner.Map(runtime.GOMAXPROCS(0), policyNames, cell)
	set("runner.sweep_wall_s_pN", since(t0))
	for i, name := range policyNames {
		set("policy."+name+".sim_elapsed_us", seq[i].simUS)
		set("policy."+name+".host_ns_per_access", seq[i].nsPerAccess)
		out.expect(par[i].simUS == seq[i].simUS, "policy %s: simulated time %v µs in the parallel sweep, %v µs sequentially", name, par[i].simUS, seq[i].simUS)
	}
}
