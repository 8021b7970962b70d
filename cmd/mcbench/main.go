// mcbench regenerates the paper's tables and figures on the simulated
// hybrid-memory machine.
//
// Usage:
//
//	mcbench -exp fig5                  # one experiment at full scale
//	mcbench -exp all -quick            # everything, CI-speed
//	mcbench -exp all -parallel 0       # fan runs out across all cores
//	mcbench -exp fig5 -chaos 42,0.01   # run under deterministic fault injection
//	mcbench -exp all -deadline 30m     # abort (exit 3) past a wall-clock budget
//	mcbench -exp fig9 -metrics out.json -series 10ms -lifecycle 1
//	                                   # ride time-series + lifecycle spans
//	mcbench -exp fig5 -metrics out.json -trace-out trace.json
//	                                   # export a Perfetto virtual-time trace
//	mcbench -exp fig5 -metrics out.json -slo 'p99(access_latency_dram_read_ns) < 400ns over 10ms'
//	                                   # evaluate latency SLOs + burn-rate alerts
//	mcbench -exp all -http :6060       # expvar/pprof for wall-clock profiling
//	mcbench -list                      # show available experiment ids
//
// Every simulated machine is an independent single-threaded system, so
// -parallel N schedules runs across goroutines without changing any
// result: stdout is byte-identical at every parallelism level; progress
// and per-run wall-clock timing go to stderr. Wall-clock performance of the
// simulator itself is measured by benchmarks/ (see its README). Checkpointed
// and invariant-swept runs of the paper's YCSB sequence are mcsim's
// (mcsim -sequence -snapshot F -snapshot-every N).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"multiclock/internal/bench"
	"multiclock/internal/cliutil"
	"multiclock/internal/metrics"
	"multiclock/internal/runner"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: argv (without the program name) in,
// exit code out.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "", "experiment id (fig1, fig2, table1, table2, fig5..fig10, ablation-*, or 'all')")
	quick := fs.Bool("quick", false, "compressed runs (~10× fewer ops and shorter daemon intervals)")
	list := fs.Bool("list", false, "list experiment ids and exit")
	deadline := fs.Duration("deadline", 0, "abort with a non-zero exit if wall-clock runtime exceeds this (0 = no limit)")
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
	if *deadline < 0 {
		return usage("mcbench: -deadline must be non-negative, got %v", *deadline)
	}
	if err := rf.Validate("mcbench"); err != nil {
		return usage("%v", err)
	}
	if *list || *exp == "" {
		fmt.Fprintln(stdout, "experiments:")
		for _, n := range bench.Names() {
			fmt.Fprintf(stdout, "  %s\n", n)
		}
		fmt.Fprintln(stdout, "  table2 (module inventory / LoC)")
		fmt.Fprintln(stdout, "  all")
		if !*list {
			return cliutil.ExitUsage
		}
		return 0
	}

	if *deadline > 0 {
		// A runaway experiment (bad flag combination, pathological scale)
		// must not hang CI forever: kill the whole process once the budget
		// is spent, loudly and with a distinctive exit code.
		d := *deadline
		defer time.AfterFunc(d, func() {
			fmt.Fprintf(stderr, "mcbench: wall-clock deadline %v exceeded; aborting\n", d)
			os.Exit(3)
		}).Stop()
	}
	stopDebug, err := rf.ServeDebug("mcbench", stderr)
	if err != nil {
		return usage("%v", err)
	}
	defer stopDebug()

	var flags bench.RunConfig
	rf.ApplyTo(&flags)
	opt := bench.Options{
		Quick: *quick, Seed: flags.Seed, Parallel: rf.Workers(), Chaos: flags.Chaos,
		Tiers: flags.Tiers, Sinks: flags.Sinks,
	}
	if rf.Metrics != "" {
		opt.Metrics = metrics.NewPool(rf.Ring())
	}
	names := []string{*exp}
	if *exp == "all" {
		names = append(bench.Names(), "table2")
	}

	// Output streams in presentation order; a failing experiment prints its
	// error inline and the rest keep going.
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
	if opt.Metrics != nil && !rf.WriteExports("mcbench", stderr, opt.Metrics.Runs()) {
		return 1
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "mcbench: %d of %d experiments failed\n", failed, len(names))
		return 1
	}
	return 0
}
