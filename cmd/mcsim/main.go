// mcsim runs one workload under one or more tiering policies on the
// simulated hybrid-memory machine and prints the outcome — a quick way to
// poke at a configuration without the full benchmark harness.
//
// Usage:
//
//	mcsim -policy multiclock -workload A -records 20000 -ops 500000
//	mcsim -policy static -gapbs PR -vertices 40000
//	mcsim -policy static,nimble,multiclock -workload D -parallel 0
//	mcsim -policy multiclock -workload A -chaos 42,0.01
//	mcsim -policy multiclock -workload A -metrics out.json -trace-events 128
//	mcsim -policy multiclock -workload A -metrics out.json -series 10ms -lifecycle 1
//	mcsim -policy multiclock -workload A -metrics out.json -trace-out trace.json
//	mcsim -policy multiclock -workload A -metrics out.json -slo 'p99(access_latency_dram_read_ns) < 400ns over 10ms'
//
// With a comma-separated policy list every policy gets its own machine;
// -parallel N fans them out across goroutines. Each machine is an
// independent single-threaded simulation, so output is printed in list
// order and is byte-identical at every parallelism level; per-policy
// wall-clock timing goes to stderr.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"multiclock"
	"multiclock/internal/bench"
	"multiclock/internal/cliutil"
	"multiclock/internal/graph"
	"multiclock/internal/machine"
	"multiclock/internal/metrics"
	"multiclock/internal/runner"
	"multiclock/internal/sim"
	"multiclock/internal/tracereplay"
	"multiclock/internal/ycsb"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// job is what one policy's machine is driven with: the run description plus
// the mcsim-only drivers that replace its YCSB workloads.
type job struct {
	bench.RunConfig
	sequence   bool
	gapbs      string
	vertices   int
	degree     int
	record     string
	replay     string
	replayFast bool
}

// run is the testable entry point: argv (without the program name) in,
// exit code out.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mcsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var j job
	pol := fs.String("policy", "multiclock", "comma-separated list of "+strings.Join(bench.PolicyNames(), " | "))
	workload := fs.String("workload", "A", "YCSB workload (A-F, W)")
	fs.BoolVar(&j.sequence, "sequence", false, "run the paper's full YCSB sequence (Load,A,B,C,F,W,D)")
	fs.StringVar(&j.gapbs, "gapbs", "", "run a GAPBS kernel instead (BFS, SSSP, PR, CC, BC, TC)")
	fs.Int64Var(&j.Records, "records", 20000, "YCSB record count")
	fs.Int64Var(&j.Ops, "ops", 500000, "YCSB operations")
	fs.IntVar(&j.vertices, "vertices", 40000, "graph vertices")
	fs.IntVar(&j.degree, "degree", 8, "graph average degree")
	fs.StringVar(&j.record, "record", "", "write the access trace to this file (single policy only)")
	fs.StringVar(&j.replay, "replay", "", "replay a recorded trace instead of a workload")
	fs.BoolVar(&j.replayFast, "replay-fast", false, "replay back-to-back instead of original pacing")
	fs.IntVar(&j.DRAMPages, "dram", 1024, "DRAM pages")
	fs.IntVar(&j.PMPages, "pm", 8192, "PM pages")
	interval := fs.Duration("interval", 0, "scan interval (virtual; default 100ms)")
	var rf cliutil.RunFlags
	rf.Register(fs)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return cliutil.ExitUsage
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, format+"\n", a...)
		return cliutil.ExitUsage
	}
	if err := rf.Validate("mcsim", ""); err != nil {
		return usage("%v", err)
	}

	var policies []string
	for _, p := range strings.Split(*pol, ",") {
		if p = strings.TrimSpace(p); p == "" {
			continue
		}
		parsed, err := multiclock.ParsePolicy(p)
		if err != nil {
			return usage("mcsim: %v", err)
		}
		policies = append(policies, string(parsed))
	}
	if len(policies) == 0 {
		return usage("mcsim: -policy needs at least one policy name")
	}
	if j.record != "" && len(policies) > 1 {
		return usage("mcsim: -record needs a single policy (the trace is one machine's access stream)")
	}

	// One run description for every mode: the same flags build the same
	// machine whether it runs straight through or is stepped op by op.
	j.Policy = policies[0]
	j.Workloads = []string{*workload}
	if j.sequence {
		j.Workloads = nil
		for _, w := range ycsb.PaperSequence {
			j.Workloads = append(j.Workloads, w.Name)
		}
	}
	j.Interval = 100 * sim.Millisecond
	if *interval > 0 {
		j.Interval = sim.Duration(interval.Nanoseconds())
	}
	j.SetFlags(&rf)

	if rf.Stepped() {
		// Checkpointable runs (and periodic invariant sweeps) are one machine
		// stepped op by op; the trace and graph paths have no
		// quiescent-boundary driver.
		if len(policies) > 1 {
			return usage("mcsim: %s needs a single policy (a stepped run is one machine)", rf.SteppedBy())
		}
		if j.gapbs != "" || j.record != "" || j.replay != "" {
			return usage("mcsim: %s supports YCSB workloads only (no -gapbs/-record/-replay)", rf.SteppedBy())
		}
	}
	stopDebug, err := rf.ServeDebug("mcsim", stderr)
	if err != nil {
		return usage("%v", err)
	}
	defer stopDebug()
	if rf.Stepped() {
		return bench.RunStepped("mcsim", "", j.RunConfig, &rf, stdout, stderr)
	}

	// Each policy's metrics snapshot lands in its own slot, so the export
	// is identical at every -parallel setting. Labels disambiguate repeated
	// policy names with the list position.
	seen := map[string]int{}
	slots := make([]*metrics.RunExport, len(policies))
	tasks := make([]runner.Task[string], 0, len(policies))
	for i, p := range policies {
		label := p
		if n := seen[p]; n > 0 {
			label = fmt.Sprintf("%s#%d", p, n)
		}
		seen[p]++
		j, slot := j, &slots[i]
		j.Policy = p
		tasks = append(tasks, runner.Task[string]{Name: p, Fn: func() (string, error) {
			var b strings.Builder
			run, err := runOne(&b, j, label)
			*slot = run
			return b.String(), err
		}})
	}

	var progress io.Writer
	if len(policies) > 1 {
		progress = stderr
	}
	failed := 0
	runner.Stream(rf.Workers(), progress, tasks, func(_ int, r runner.TaskResult[string]) {
		if len(tasks) > 1 {
			fmt.Fprintf(stdout, "==== %s ====\n", r.Name)
		}
		io.WriteString(stdout, r.Value)
		if r.Err != nil {
			failed++
			fmt.Fprintf(stderr, "mcsim: %s: %v\n", r.Name, r.Err)
		}
	})
	var runs []metrics.RunExport
	for _, r := range slots {
		if r != nil {
			runs = append(runs, *r)
		}
	}
	if !rf.WriteExports("mcsim", stderr, runs) || failed > 0 {
		return 1
	}
	return 0
}

// runOne builds one machine from the run description, drives it, writes the
// human-readable outcome to w, and returns the metrics snapshot when
// collection was requested.
func runOne(w io.Writer, j job, label string) (*metrics.RunExport, error) {
	m, err := j.Machine()
	if err != nil {
		return nil, err
	}
	collector, fill := j.Attach(m)

	var recorder *tracereplay.Recorder
	if j.record != "" {
		f, err := os.Create(j.record)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		recorder, err = tracereplay.NewRecorder(f)
		if err != nil {
			return nil, err
		}
		m.Attach(recorder)
	}

	switch {
	case j.replay != "":
		f, err := os.Open(j.replay)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		mode := tracereplay.Timed
		if j.replayFast {
			mode = tracereplay.Fast
		}
		res, err := tracereplay.Replay(m, f, mode)
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		fmt.Fprintf(w, "replayed %d accesses in %v (virtual)\n", res.Records, res.Elapsed)
	case j.gapbs != "":
		if err := runGAPBS(w, m, j); err != nil {
			return nil, err
		}
	default:
		if err := runYCSB(w, m, j); err != nil {
			return nil, err
		}
	}

	if recorder != nil {
		if err := recorder.Close(); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		fmt.Fprintf(w, "trace: %d accesses written to %s\n", recorder.Records(), j.record)
	}

	fmt.Fprintf(w, "\npolicy: %s\nvirtual time: %v\n", m.Policy.Name(), m.Elapsed())
	fmt.Fprintln(w, &m.Mem.Counters)
	if m.Faults != nil {
		fmt.Fprintln(w, m.Faults.Counters.String())
		if err := m.CheckInvariants(); err != nil {
			return nil, fmt.Errorf("invariant check after chaos run: %w", err)
		}
	}
	if collector == nil {
		return nil, nil
	}
	run := collector.Run(label)
	fill(&run)
	return &run, nil
}

// runYCSB loads the store and runs the description's workloads: a per-
// workload table for the prescribed sequence (§V-B), the full latency
// summary for a single workload.
func runYCSB(w io.Writer, m *machine.Machine, j job) error {
	var wls []ycsb.Workload
	for _, name := range j.Workloads {
		wl, err := ycsb.ByName(name)
		if err != nil {
			return err
		}
		wls = append(wls, wl)
	}
	_, client := j.NewYCSB(m)
	fmt.Fprintf(w, "loading %d records...\n", j.Records)
	client.Load()
	if j.sequence {
		fmt.Fprintf(w, "%-8s %14s %10s %10s %10s\n", "workload", "ops/s", "p50", "p95", "p99")
		for _, wl := range wls {
			res := client.Run(wl, j.Ops)
			fmt.Fprintf(w, "%-8s %14.0f %10v %10v %10v\n", wl.Name, res.Throughput, res.P50, res.P95, res.P99)
		}
		return nil
	}
	fmt.Fprintf(w, "running YCSB workload %s for %d ops...\n", wls[0].Name, j.Ops)
	res := client.Run(wls[0], j.Ops)
	if res.Unsupported {
		fmt.Fprintln(w, "workload is non-operational on this back-end (memcached has no SCAN)")
		return nil
	}
	fmt.Fprintf(w, "throughput: %.0f ops/s (virtual)\n", res.Throughput)
	fmt.Fprintf(w, "latency: mean %v, p50 %v, p95 %v, p99 %v\n",
		res.MeanLatency, res.P50, res.P95, res.P99)
	return nil
}

func runGAPBS(w io.Writer, m *machine.Machine, j job) error {
	g := graph.Generate(m, graph.GenConfig{
		Vertices:  j.vertices,
		Degree:    j.degree,
		Kronecker: true,
		Seed:      j.Seed,
	})
	fmt.Fprintf(w, "loaded %v; running %s...\n", g, j.gapbs)
	start := m.Elapsed()
	switch j.gapbs {
	case "BFS":
		g.BFS(0)
	case "SSSP":
		g.SSSP(0, 64)
	case "PR":
		g.PageRank(5)
	case "CC":
		g.CC()
	case "BC":
		g.BC([]int32{0, 1, 2, 3})
	case "TC":
		fmt.Fprintf(w, "triangles: %d\n", g.TC())
	default:
		return fmt.Errorf("unknown kernel %q", j.gapbs)
	}
	fmt.Fprintf(w, "kernel time: %v (virtual)\n", m.Elapsed()-start)
	return nil
}
