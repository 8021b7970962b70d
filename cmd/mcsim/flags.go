package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"multiclock/internal/bench"
	"multiclock/internal/fault"
	"multiclock/internal/mem"
	"multiclock/internal/metrics"
	"multiclock/internal/sim"
	"multiclock/internal/slo"
	"multiclock/internal/traceexport"
)

// ExitUsage is the exit code of an invalid flag combination.
const ExitUsage = 2

// DefaultTraceRing is the structured-event ring capacity a run defaults to
// when -trace-out is requested without an explicit -trace-events: a Perfetto
// export without the event ring would carry no migrations, daemon passes or
// page faults.
const DefaultTraceRing = 65536

// errExportFlags is the refusal of instrumentation without a metrics export
// to carry it, printed verbatim (no program-name prefix).
var errExportFlags = errors.New("-series/-lifecycle/-slo/-trace-out ride the metrics export; set -metrics too")

// RunFlags is what seeds and perturbs the simulated machines, which
// instrumentation rides the metrics export, and the checkpoint flags
// (SnapshotFlags, which -exp refuses). Register it once, Validate it once;
// the parsed forms (Chaos, SLOSpec) are filled by Validate.
type RunFlags struct {
	Seed        uint64
	Parallel    int
	Tiers       string
	Metrics     string
	TraceEvents int
	Series      time.Duration
	Lifecycle   uint64
	HTTP        string
	SLO         string
	TraceOut    string
	SnapshotFlags

	chaos string

	Chaos   fault.Config
	SLOSpec *slo.Spec
}

// Register installs the run and checkpoint flags on fs.
func (f *RunFlags) Register(fs *flag.FlagSet) {
	fs.Uint64Var(&f.Seed, "seed", 1, "simulation seed")
	fs.IntVar(&f.Parallel, "parallel", 1, "max simulated machines in flight (0 = GOMAXPROCS, 1 = sequential)")
	fs.StringVar(&f.chaos, "chaos", "", "deterministic fault injection as seed,rate (e.g. 42,0.01); empty disables")
	fs.StringVar(&f.Tiers, "tiers", "", "explicit tier hierarchy as name:frames pairs, fastest first (e.g. dram:1024,cxl:2048,pm:8192,ssd:*), replacing the default DRAM/PM pair on every machine")
	fs.StringVar(&f.Metrics, "metrics", "", "write a deterministic metrics JSON export to this file")
	fs.IntVar(&f.TraceEvents, "trace-events", 0, "structured trace ring capacity per machine in the metrics export (0 = no event trace)")
	fs.DurationVar(&f.Series, "series", 0, "sample a windowed occupancy time series per machine on this virtual period into the metrics export (0 = off)")
	fs.Uint64Var(&f.Lifecycle, "lifecycle", 0, "trace per-page lifecycle spans with this sampling modulus (1 = every page, 0 = off) into the metrics export")
	fs.StringVar(&f.HTTP, "http", "", "serve expvar/pprof on this address (e.g. localhost:6060) for wall-clock profiling of long runs")
	fs.StringVar(&f.SLO, "slo", "", "evaluate latency objectives on the virtual clock, e.g. 'p99(access_latency_dram_read_ns) < 400ns over 10ms, 99.9%'; results ride the -metrics export (see `mcmetrics slo`)")
	fs.StringVar(&f.TraceOut, "trace-out", "", "write a Perfetto/Chrome trace of the run's virtual-time timeline to this file (open in ui.perfetto.dev; requires -metrics)")
	fs.StringVar(&f.Snapshot, "snapshot", "", "checkpoint the run to this file every -snapshot-every ops (and at completion)")
	fs.Int64Var(&f.SnapshotEvery, "snapshot-every", 0, "ops between checkpoints/audit fingerprints (requires -snapshot or -audit)")
	fs.StringVar(&f.Restore, "restore", "", "resume from this snapshot file instead of starting fresh")
	fs.StringVar(&f.Audit, "audit", "", "append per-subsystem state hashes to this JSONL file every -snapshot-every ops (see `mcmetrics diverge`)")
	fs.Int64Var(&f.InvariantsEvery, "invariants-every", 0, "run the machine invariant checker every N ops (0 = off)")
}

// SnapshotFlags are the flags that checkpoint, restore, audit or
// invariant-sweep a run op by op; -exp refuses them all.
type SnapshotFlags struct {
	Snapshot        string
	SnapshotEvery   int64
	Restore         string
	Audit           string
	InvariantsEvery int64
}

// CheckpointedBy names the set flags that write or read a snapshot file
// (-snapshot, -restore, -audit), joined with "/", for the messages that
// refuse what a checkpoint cannot hold. It is empty for a run that only
// sweeps invariants: that run has nothing to serialise.
func (f *SnapshotFlags) CheckpointedBy() string {
	var by []string
	if f.Snapshot != "" {
		by = append(by, "-snapshot")
	}
	if f.Restore != "" {
		by = append(by, "-restore")
	}
	if f.Audit != "" {
		by = append(by, "-audit")
	}
	return strings.Join(by, "/")
}

// SteppedBy is CheckpointedBy plus -invariants-every: the flags that step a
// run, for the messages that refuse drivers with no stepped form.
func (f *SnapshotFlags) SteppedBy() string {
	by := f.CheckpointedBy()
	if f.InvariantsEvery > 0 {
		by = strings.TrimPrefix(by+"/-invariants-every", "/")
	}
	return by
}

// Validate checks the run flags in one order: the -chaos and -tiers specs,
// instrumentation without -metrics, the -slo spec, the checkpoint cadence
// rules, and instrumentation in a checkpointed run. The -series/-lifecycle
// samplers, the -slo engine's scheduled window ticks and the -trace-out
// window log hold state a snapshot does not carry, so combining them with
// -snapshot/-restore/-audit is refused rather than silently dropped; a run
// that only sweeps invariants takes them. The error text is the complete
// stderr line.
func (f *RunFlags) Validate() error {
	var err error
	if f.Chaos, err = fault.ParseSpec(f.chaos); err != nil {
		return fmt.Errorf("mcsim: %v", err)
	}
	if f.Tiers != "" {
		if _, err := mem.ParseTopology(f.Tiers); err != nil {
			return fmt.Errorf("-tiers: %v", err)
		}
	}
	sinks := f.Series > 0 || f.Lifecycle > 0 || f.SLO != "" || f.TraceOut != ""
	if sinks && f.Metrics == "" {
		return errExportFlags
	}
	if f.SLO != "" {
		if f.SLOSpec, err = slo.Parse(f.SLO); err != nil {
			return err
		}
	}
	if f.SnapshotEvery < 0 {
		return errors.New("-snapshot-every must be non-negative")
	}
	if f.InvariantsEvery < 0 {
		return errors.New("-invariants-every must be non-negative")
	}
	if f.SnapshotEvery > 0 && f.Snapshot == "" && f.Audit == "" {
		return errors.New("-snapshot-every needs -snapshot or -audit to do anything")
	}
	if (f.Snapshot != "" || f.Audit != "") && f.SnapshotEvery <= 0 {
		return errors.New("-snapshot/-audit need -snapshot-every N to set the checkpoint cadence")
	}
	if by := f.CheckpointedBy(); sinks && by != "" {
		return fmt.Errorf("-series/-lifecycle/-slo/-trace-out cannot be combined with %s: one-shot samplers are not serializable", by)
	}
	return nil
}

// ApplyTo sets the recipe fields the run flags select: seed, fault campaign,
// hierarchy and instrumentation (Validate has parsed the specs). It is the
// one place a flag value enters a run description.
func (f *RunFlags) ApplyTo(rc *bench.RunConfig) {
	rc.Seed, rc.Chaos, rc.Tiers = f.Seed, f.Chaos, f.Tiers
	rc.Metrics, rc.TraceEvents = f.Metrics != "", f.Ring()
	rc.Sinks = bench.Sinks{
		Series: sim.Duration(f.Series.Nanoseconds()), Lifecycle: f.Lifecycle,
		SLO: f.SLOSpec, Trace: f.TraceOut != "",
	}
}

// Workers resolves -parallel for the runner: non-positive means GOMAXPROCS.
func (f *RunFlags) Workers() int {
	if f.Parallel <= 0 {
		return -1
	}
	return f.Parallel
}

// Ring is the structured-event ring capacity the run's collectors get:
// -trace-events, or DefaultTraceRing when -trace-out needs one.
func (f *RunFlags) Ring() int {
	if f.TraceOut != "" && f.TraceEvents == 0 {
		return DefaultTraceRing
	}
	return f.TraceEvents
}

// WriteExports writes the files the run's instrumentation flags asked for:
// the -metrics JSON document over runs and, with -trace-out, the Perfetto
// timeline rebuilt from the same runs. It reports to stderr and returns
// false when a file could not be written.
func (f *RunFlags) WriteExports(stderr io.Writer, runs []metrics.RunExport) bool {
	if f.Metrics == "" {
		return true
	}
	data, err := metrics.ExportJSON(runs...)
	if err == nil {
		err = os.WriteFile(f.Metrics, data, 0o644)
	}
	if err != nil {
		fmt.Fprintf(stderr, "mcsim: writing metrics: %v\n", err)
		return false
	}
	fmt.Fprintf(stderr, "metrics: %d run(s) written to %s\n", len(runs), f.Metrics)
	if f.TraceOut != "" {
		if err := os.WriteFile(f.TraceOut, traceexport.Build(runs), 0o644); err != nil {
			fmt.Fprintf(stderr, "mcsim: writing trace: %v\n", err)
			return false
		}
		fmt.Fprintf(stderr, "trace: perfetto timeline written to %s\n", f.TraceOut)
	}
	return true
}
