// mcsim runs the simulated hybrid-memory machine: one workload under one or
// more tiering policies, or (-exp) the paper's tables and figures.
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
//	mcsim -policy nimble -sequence -snapshot run.mcsnap -snapshot-every 20000
//	mcsim -restore run.mcsnap -snapshot run.mcsnap -snapshot-every 20000
//	mcsim -exp all -quick -parallel 0 -deadline 30m
//	mcsim -exp fig9 -quick -metrics out.json -series 10ms -lifecycle 1
//	mcsim -exp list
//
// Every YCSB run is one bench.Session per policy; -invariants-every and the
// checkpoint flags (-snapshot/-restore/-audit) only add hooks between its
// ops, so they never change what is simulated. Every policy of a list and
// every run of an experiment gets its own machine; -parallel N fans them out
// across goroutines. Each machine is an independent single-threaded
// simulation, so output is printed in list order and is byte-identical at
// every parallelism level; wall-clock timing goes to stderr.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"multiclock"
	"multiclock/internal/bench"
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
	gapbs      string
	vertices   int
	degree     int
	record     string
	replay     string
	replayFast bool
}

// kernels are the -gapbs kernels runGAPBS drives.
var kernels = []string{"BFS", "SSSP", "PR", "CC", "BC", "TC"}

// expReads is every flag an -exp run reads. The experiments build their own
// machines, so any other flag set beside -exp is refused, never ignored.
var expReads = map[string]bool{
	"exp": true, "quick": true, "deadline": true, "seed": true, "parallel": true, "chaos": true, "tiers": true,
	"metrics": true, "trace-events": true, "series": true, "lifecycle": true, "http": true, "slo": true, "trace-out": true,
}

// run is the testable entry point: argv (without the program name) in,
// exit code out.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mcsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var j job
	pol := fs.String("policy", "multiclock", "comma-separated list of "+strings.Join(bench.PolicyNames(), " | "))
	workload := fs.String("workload", "A", "YCSB workload (A-F, W)")
	sequence := fs.Bool("sequence", false, "run the paper's full YCSB sequence (Load,A,B,C,F,W,D)")
	fs.StringVar(&j.gapbs, "gapbs", "", "run a GAPBS kernel instead ("+strings.Join(kernels, ", ")+")")
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
	exp := fs.String("exp", "", "run the paper's experiment with this id (fig1, fig2, table1, table2, fig5..fig10, ablation-*, or 'all'; 'list' lists them) instead of one workload")
	quick := fs.Bool("quick", false, "compressed experiments (~10× fewer ops and shorter daemon intervals)")
	deadline := fs.Duration("deadline", 0, "abort with a non-zero exit if wall-clock runtime exceeds this (0 = no limit)")
	var rf RunFlags
	rf.Register(fs)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return ExitUsage
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, format+"\n", a...)
		return ExitUsage
	}
	var refused string
	fs.Visit(func(f *flag.Flag) {
		if refused == "" && *exp != "" && !expReads[f.Name] {
			refused = "-" + f.Name + " does not apply to -exp (the experiments build their own machines)"
		} else if refused == "" && *exp == "" && f.Name == "quick" {
			refused = "-quick needs -exp"
		}
	})
	if refused != "" {
		return usage("mcsim: %s", refused)
	}
	if *deadline < 0 {
		return usage("mcsim: -deadline must be non-negative, got %v", *deadline)
	}
	if *interval < 0 {
		return usage("mcsim: -interval must be non-negative, got %v", *interval)
	}
	if err := rf.Validate(); err != nil {
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
	// A snapshot file holds one machine and only the state MCSNAP carries;
	// the trace and graph drivers have no stepped form.
	if by := rf.CheckpointedBy(); by != "" {
		if len(policies) > 1 {
			return usage("mcsim: %s needs a single policy (a snapshot holds one machine)", by)
		}
		if j.record != "" {
			return usage("mcsim: -record cannot be combined with %s: the trace recorder is not serializable", by)
		}
	}
	if by := rf.SteppedBy(); by != "" && (j.gapbs != "" || j.replay != "") {
		return usage("mcsim: %s supports YCSB workloads only (no -gapbs/-replay)", by)
	}
	if j.gapbs != "" && !slices.Contains(kernels, j.gapbs) {
		return usage("mcsim: unknown kernel %q (have %s)", j.gapbs, strings.Join(kernels, ", "))
	}
	// graph.GenerateEdges' rule, checked before a machine is built.
	if j.gapbs != "" && (j.vertices < 2 || j.degree <= 0) {
		return usage("mcsim: -gapbs needs at least 2 vertices and a positive degree, got -vertices %d -degree %d", j.vertices, j.degree)
	}
	if *exp == "list" {
		fmt.Fprintln(stdout, "experiments:")
		for _, n := range append(bench.Names(), "table2 (module inventory / LoC)", "all") {
			fmt.Fprintf(stdout, "  %s\n", n)
		}
		return 0
	}

	if *deadline > 0 {
		// A runaway run must not hang CI forever: once the budget is spent,
		// kill the whole process, loudly and with a distinctive exit code.
		d := *deadline
		defer time.AfterFunc(d, func() {
			fmt.Fprintf(stderr, "mcsim: wall-clock deadline %v exceeded; aborting\n", d)
			os.Exit(3)
		}).Stop()
	}
	stopDebug, err := rf.ServeDebug(stderr)
	if err != nil {
		return usage("%v", err)
	}
	defer stopDebug()
	if *exp != "" {
		return runExperiments(*exp, *quick, &rf, stdout, stderr)
	}

	// One run description for every mode: the same flags build the same
	// machine whether it runs straight through or is stepped op by op.
	j.Policy = policies[0]
	j.Workloads = []string{*workload}
	if *sequence {
		j.Workloads = nil
		for _, w := range ycsb.PaperSequence {
			j.Workloads = append(j.Workloads, w.Name)
		}
	}
	j.Interval = 100 * sim.Millisecond
	if *interval > 0 {
		j.Interval = sim.Duration(interval.Nanoseconds())
	}
	rf.ApplyTo(&j.RunConfig)

	// A restored run follows the snapshot's own recipe, whatever -policy says.
	var restored *bench.Session
	if rf.Restore != "" {
		if restored, err = bench.ResumeSession(rf.Restore, rf.Metrics != "", rf.Audit, rf.SnapshotEvery); err != nil {
			fmt.Fprintf(stderr, "mcsim: %v\n", err)
			return 1
		}
		policies = []string{restored.Cfg.Policy}
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
			var rec *tracereplay.Recorder
			if j.record != "" {
				f, err := os.Create(j.record)
				if err != nil {
					return "", err
				}
				defer f.Close()
				if rec, err = tracereplay.NewRecorder(f); err != nil {
					return "", err
				}
			}
			var err error
			if j.gapbs != "" || j.replay != "" {
				*slot, err = runOne(&b, j, rec, label)
			} else {
				*slot, err = runSession(&b, j, restored, &rf.SnapshotFlags, rec, label)
			}
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
	if !rf.WriteExports(stderr, runs) || failed > 0 {
		return 1
	}
	return 0
}

// runExperiments streams the paper's experiments (one id, or "all") to
// stdout in presentation order; a failing experiment prints its error
// inline and the rest keep going.
func runExperiments(exp string, quick bool, rf *RunFlags, stdout, stderr io.Writer) int {
	var rc bench.RunConfig
	rf.ApplyTo(&rc)
	opt := bench.Options{Quick: quick, Seed: rc.Seed, Parallel: rf.Workers(), Chaos: rc.Chaos, Tiers: rc.Tiers, Sinks: rc.Sinks}
	if rf.Metrics != "" {
		opt.Metrics = metrics.NewPool(rf.Ring())
	}
	names := []string{exp}
	if exp == "all" {
		names = append(bench.Names(), "table2")
	}
	failed := 0
	bench.Stream(names, opt, stderr, func(_ int, r runner.TaskResult[string]) {
		expExperimentsDone.Add(1)
		if r.Err != nil {
			failed++
			expExperimentsFailed.Add(1)
			fmt.Fprintf(stdout, "==== %s ====\nerror: %v\n\n", r.Name, r.Err)
			return
		}
		fmt.Fprintf(stdout, "==== %s ====\n%s\n", r.Name, r.Value)
	})
	if opt.Metrics != nil && !rf.WriteExports(stderr, opt.Metrics.Runs()) {
		return 1
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "mcsim: %d of %d experiments failed\n", failed, len(names))
		return 1
	}
	return 0
}

// runSession drives the description's YCSB workloads through a bench.Session
// (fresh, or the one restored from -restore) under the checkpoint flags,
// writes its report to w, and returns the metrics snapshot when collection
// was requested.
func runSession(w io.Writer, j job, s *bench.Session, f *SnapshotFlags, rec *tracereplay.Recorder, label string) (*metrics.RunExport, error) {
	if s == nil {
		var obs []machine.Observer
		if rec != nil {
			obs = append(obs, rec)
		}
		var err error
		if s, err = bench.NewSession(j.RunConfig, obs...); err != nil {
			return nil, err
		}
	}
	h := bench.SoakHooks{SnapshotPath: f.Snapshot, SnapshotEvery: f.SnapshotEvery, InvariantsEvery: f.InvariantsEvery}
	report, err := s.Drive(h, f.Audit)
	if err != nil {
		return nil, err
	}
	if err := finishTrace(w, rec, j.record); err != nil {
		return nil, err
	}
	io.WriteString(w, report)
	if s.M.Faults != nil {
		if err := s.M.CheckInvariants(); err != nil {
			return nil, fmt.Errorf("invariant check after chaos run: %w", err)
		}
	}
	return s.MetricsRun(label), nil
}

// runOne builds one machine from the run description, drives it with the
// -gapbs kernel or the -replay trace, writes the human-readable outcome to
// w, and returns the metrics snapshot when collection was requested.
func runOne(w io.Writer, j job, rec *tracereplay.Recorder, label string) (*metrics.RunExport, error) {
	m, err := j.Machine()
	if err != nil {
		return nil, err
	}
	collector, fill := j.Attach(m)
	if rec != nil {
		m.Attach(rec)
	}

	if j.replay != "" {
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
	} else {
		runGAPBS(w, m, j)
	}
	if err := finishTrace(w, rec, j.record); err != nil {
		return nil, err
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

// finishTrace flushes the -record trace, if any, and reports it on w.
func finishTrace(w io.Writer, rec *tracereplay.Recorder, path string) error {
	if rec == nil {
		return nil
	}
	if err := rec.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	fmt.Fprintf(w, "trace: %d accesses written to %s\n", rec.Records(), path)
	return nil
}

// runGAPBS generates the graph on m and runs the -gapbs kernel over it.
func runGAPBS(w io.Writer, m *machine.Machine, j job) {
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
	}
	fmt.Fprintf(w, "kernel time: %v (virtual)\n", m.Elapsed()-start)
}
