// mcmetrics inspects the deterministic metrics exports that mcsim -metrics
// writes, for one workload or for -exp: it validates a file against the schema and
// renders a human-readable summary (histogram quantiles, counters, trace
// tail), a flat CSV for plotting, or — for exports carrying the optional
// observability sections — per-page lifecycle timelines, ping-pong rankings
// and the windowed occupancy time series.
//
// Usage:
//
//	mcmetrics out.json                   # validate + summarize
//	mcmetrics -validate out.json         # schema check only (CI smoke)
//	mcmetrics -csv out.json              # histogram buckets as CSV
//	mcmetrics -run fig10/multiclock@10ms out.json   # one run only
//	mcmetrics timeline 0x7f0000 out.json # one page's Fig. 4 span walk
//	mcmetrics timeline 2/0x1000 out.json # page in address space 2
//	mcmetrics pingpong --top 5 out.json  # worst migration ping-pongers
//	mcmetrics series out.json            # time-series windows as CSV
//	mcmetrics slo out.json               # SLO compliance + burn-rate report
//	mcmetrics perfetto -o t.json out.json# rebuild the Perfetto timeline
//	mcmetrics diverge a.jsonl b.jsonl    # scan two -audit trails to the
//	                                     # first diverging checkpoint
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"multiclock/internal/metrics"
	"multiclock/internal/sim"
	"multiclock/internal/slo"
	"multiclock/internal/snapshot"
	"multiclock/internal/traceexport"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: argv (without the program name) in,
// exit code out.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "timeline":
			return cmdTimeline(args[1:], stdout, stderr)
		case "pingpong":
			return cmdPingpong(args[1:], stdout, stderr)
		case "series":
			return cmdSeries(args[1:], stdout, stderr)
		case "slo":
			return cmdSLO(args[1:], stdout, stderr)
		case "perfetto":
			return cmdPerfetto(args[1:], stdout, stderr)
		case "diverge":
			return cmdDiverge(args[1:], stdout, stderr)
		}
	}
	return cmdSummary(args, stdout, stderr)
}

// loadRuns reads and validates an export, optionally filtered to one label.
// On failure it reports to stderr and returns nil.
func loadRuns(path, runFilter string, stderr io.Writer) ([]metrics.RunExport, *metrics.Export) {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(stderr, "mcmetrics: %v\n", err)
		return nil, nil
	}
	ex, err := metrics.ReadExport(data)
	if err != nil {
		fmt.Fprintf(stderr, "mcmetrics: %s: %v\n", path, err)
		return nil, nil
	}
	runs := ex.Runs
	if runFilter != "" {
		runs = nil
		for _, r := range ex.Runs {
			if r.Label == runFilter {
				runs = append(runs, r)
			}
		}
		if len(runs) == 0 {
			fmt.Fprintf(stderr, "mcmetrics: no run labeled %q (have %s)\n", runFilter, labels(ex.Runs))
			return nil, nil
		}
	}
	return runs, ex
}

// subcmd is the setup the export-reading subcommands share: a flag set
// carrying -run, an operand count checked against a usage line, and the
// export named by the last operand.
type subcmd struct {
	*flag.FlagSet
	run *string
}

func newSubcmd(name string, stderr io.Writer) *subcmd {
	fs := flag.NewFlagSet("mcmetrics "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return &subcmd{FlagSet: fs, run: fs.String("run", "", "restrict output to the run with this label")}
}

// parse parses args and checks for nargs operands, printing usage when the
// count is wrong. False means exit status 2.
func (c *subcmd) parse(args []string, nargs int, usage string) bool {
	if c.Parse(args) != nil {
		return false
	}
	if c.NArg() != nargs {
		fmt.Fprintln(c.Output(), usage)
		return false
	}
	return true
}

// load reads the export named by the last operand, filtered by -run. A nil
// result has been reported.
func (c *subcmd) load() []metrics.RunExport {
	runs, _ := loadRuns(c.Arg(c.NArg()-1), *c.run, c.Output())
	return runs
}

// carrying keeps the runs that carry a section, per has. When none does it
// reports that the section (which the run flag adds) is missing and returns
// nil. Nil runs, a load that failed, stay nil without a further report.
func (c *subcmd) carrying(runs []metrics.RunExport, section, runFlag string, has func(*metrics.RunExport) bool) []metrics.RunExport {
	if runs == nil {
		return nil
	}
	var out []metrics.RunExport
	for i := range runs {
		if has(&runs[i]) {
			out = append(out, runs[i])
		}
	}
	if out == nil {
		fmt.Fprintf(c.Output(), "mcmetrics: no run in the export carries %s (run with %s)\n", section, runFlag)
	}
	return out
}

// cmdSummary is the original flag-driven path: validate, CSV, or summary.
func cmdSummary(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mcmetrics", flag.ContinueOnError)
	fs.SetOutput(stderr)
	validateOnly := fs.Bool("validate", false, "schema-check the export and exit (0 = valid)")
	csv := fs.Bool("csv", false, "print histogram buckets as CSV instead of the summary")
	runFilter := fs.String("run", "", "restrict output to the run with this label")
	events := fs.Int("events", 10, "trace events to show per run in the summary")
	if fs.Parse(args) != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: mcmetrics [-validate|-csv] [-run label] <export.json>")
		fmt.Fprintln(stderr, "       mcmetrics timeline|pingpong|series [flags] ... <export.json>")
		return 2
	}
	path := fs.Arg(0)
	runs, ex := loadRuns(path, *runFilter, stderr)
	if runs == nil {
		return 1
	}
	if *validateOnly {
		fmt.Fprintf(stdout, "%s: valid (version %d, %d runs)\n", path, ex.Version, len(ex.Runs))
		return 0
	}
	if *csv {
		fmt.Fprint(stdout, metrics.ExportCSV(runs...))
		return 0
	}
	for i, r := range runs {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		summarize(stdout, r, *events)
	}
	return 0
}

// cmdTimeline prints one page's lifecycle span walk from each selected run.
func cmdTimeline(args []string, stdout, stderr io.Writer) int {
	c := newSubcmd("timeline", stderr)
	if !c.parse(args, 2, "usage: mcmetrics timeline [-run label] <[space/]va> <export.json>") {
		return 2
	}
	space, anySpace, va, err := parsePageSpec(c.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "mcmetrics: %v\n", err)
		return 2
	}
	runs := c.load()
	if runs == nil {
		return 1
	}
	found := 0
	for _, r := range runs {
		if r.Lifecycle == nil {
			continue
		}
		for i := range r.Lifecycle.Pages {
			p := &r.Lifecycle.Pages[i]
			if p.VA != va || (!anySpace && p.Space != space) {
				continue
			}
			found++
			fmt.Fprintf(stdout, "== %s  page %d/%#x  (%d migration(s), %d event(s))\n",
				r.Label, p.Space, p.VA, p.Migrations, len(p.Events))
			for _, ev := range p.Events {
				fmt.Fprintf(stdout, "  %14s  %-16s %-16s node %d\n",
					sim.Duration(ev.At).String(), ev.State, ev.Reason, ev.Node)
			}
		}
	}
	if found == 0 {
		fmt.Fprintf(stderr, "mcmetrics: page %s not traced in any selected run (was -lifecycle on and the page sampled?)\n", c.Arg(0))
		return 1
	}
	return 0
}

// cmdPingpong ranks traced pages by successful migrations — the pages
// bouncing between tiers — and prints the top N per run.
func cmdPingpong(args []string, stdout, stderr io.Writer) int {
	const usage = "usage: mcmetrics pingpong [-run label] [--top N] <export.json>"
	c := newSubcmd("pingpong", stderr)
	top := c.Int("top", 10, "pages to show per run")
	if !c.parse(args, 1, usage) {
		return 2
	}
	if *top < 1 {
		fmt.Fprintln(stderr, usage)
		return 2
	}
	runs := c.carrying(c.load(), "a lifecycle section", "-lifecycle", func(r *metrics.RunExport) bool { return r.Lifecycle != nil })
	if runs == nil {
		return 1
	}
	for _, r := range runs {
		// Exported pages are (space,va)-sorted, so a stable selection sort
		// by migrations descending inherits the (space,va) tie-break.
		ranked := make([]*metrics.PageTimeline, 0, len(r.Lifecycle.Pages))
		for i := range r.Lifecycle.Pages {
			if r.Lifecycle.Pages[i].Migrations > 0 {
				ranked = append(ranked, &r.Lifecycle.Pages[i])
			}
		}
		for i := 0; i < len(ranked) && i < *top; i++ {
			best := i
			for j := i + 1; j < len(ranked); j++ {
				if ranked[j].Migrations > ranked[best].Migrations {
					best = j
				}
			}
			// Rotate (not swap) to keep the (space,va) order among ties.
			p := ranked[best]
			copy(ranked[i+1:best+1], ranked[i:best])
			ranked[i] = p
		}
		fmt.Fprintf(stdout, "== %s  (%d traced page(s), %d with migrations)\n",
			r.Label, len(r.Lifecycle.Pages), len(ranked))
		if len(ranked) == 0 {
			fmt.Fprintln(stdout, "  no migrations recorded")
			continue
		}
		fmt.Fprintf(stdout, "  %4s %6s %18s %11s %7s\n", "rank", "space", "va", "migrations", "events")
		for i := 0; i < len(ranked) && i < *top; i++ {
			p := ranked[i]
			fmt.Fprintf(stdout, "  %4d %6d %#18x %11d %7d\n",
				i+1, p.Space, p.VA, p.Migrations, len(p.Events))
		}
	}
	return 0
}

// cmdSeries flattens the windowed time series to CSV: one row per
// (window, node), with the window-global deltas and DRAM hit ratio repeated
// on each row so a plotting tool needs no joins.
func cmdSeries(args []string, stdout, stderr io.Writer) int {
	c := newSubcmd("series", stderr)
	if !c.parse(args, 1, "usage: mcmetrics series [-run label] <export.json>") {
		return 2
	}
	runs := c.load()
	if runs == nil {
		return 1
	}
	fmt.Fprintln(stdout, "run,window,start_ns,end_ns,node,tier,free_frames,low_distance,"+
		"anon_inactive,anon_active,anon_promote,file_inactive,file_active,file_promote,unevictable,"+
		"reads_dram,reads_pm,writes_dram,writes_pm,promotions,demotions,migrate_fails,"+
		"swap_outs,swap_ins,pages_scanned,dram_hit")
	runs = c.carrying(runs, "a series section", "-series", func(r *metrics.RunExport) bool { return r.Series != nil })
	if runs == nil {
		return 1
	}
	for _, r := range runs {
		for i := range r.Series.Windows {
			w := &r.Series.Windows[i]
			for _, n := range w.Nodes {
				fmt.Fprintf(stdout, "%s,%d,%d,%d,%d,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.4f\n",
					r.Label, w.Index, w.Start, w.End, n.Node, n.Tier, n.Free, n.LowDistance,
					n.AnonInactive, n.AnonActive, n.AnonPromote,
					n.FileInactive, n.FileActive, n.FilePromote, n.Unevictable,
					w.ReadsDRAM, w.ReadsPM, w.WritesDRAM, w.WritesPM,
					w.Promotions, w.Demotions, w.MigrateFails,
					w.SwapOuts, w.SwapIns, w.PagesScanned, w.DRAMHitRatio())
			}
		}
	}
	return 0
}

// cmdSLO renders the human burn-rate report for every selected run that
// carries an slo section (mcsim -slo ... -metrics out.json).
func cmdSLO(args []string, stdout, stderr io.Writer) int {
	c := newSubcmd("slo", stderr)
	if !c.parse(args, 1, "usage: mcmetrics slo [-run label] <export.json>") {
		return 2
	}
	runs := c.carrying(c.load(), "an slo section", "-slo", func(r *metrics.RunExport) bool { return r.SLO != nil })
	if runs == nil {
		return 1
	}
	for _, r := range runs {
		fmt.Fprint(stdout, slo.Format(r.Label, r.SLO))
	}
	return 0
}

// cmdPerfetto rebuilds the Perfetto/Chrome trace-event timeline from an
// export after the fact — the same bytes mcsim -trace-out would have
// written for the selected runs. Open the result in ui.perfetto.dev.
func cmdPerfetto(args []string, stdout, stderr io.Writer) int {
	c := newSubcmd("perfetto", stderr)
	out := c.String("o", "", "write the trace to this file instead of stdout")
	if !c.parse(args, 1, "usage: mcmetrics perfetto [-run label] [-o trace.json] <export.json>") {
		return 2
	}
	runs := c.load()
	if runs == nil {
		return 1
	}
	trace := traceexport.Build(runs)
	if *out == "" {
		if _, err := stdout.Write(trace); err != nil {
			fmt.Fprintf(stderr, "mcmetrics: %v\n", err)
			return 1
		}
		return 0
	}
	if err := os.WriteFile(*out, trace, 0o644); err != nil {
		fmt.Fprintf(stderr, "mcmetrics: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "trace: perfetto timeline written to %s\n", *out)
	return 0
}

// cmdDiverge scans two audit trails (the JSONL files mcsim writes
// under -audit) to the first checkpoint where any subsystem hash differs —
// turning "two runs that should match don't" into the op, virtual time and
// subsystems of the first divergence. Exit 0 means identical trails.
func cmdDiverge(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mcmetrics diverge", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if fs.Parse(args) != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: mcmetrics diverge <a.jsonl> <b.jsonl>")
		return 2
	}
	trails := make([][]snapshot.AuditRecord, 2)
	for i := 0; i < 2; i++ {
		f, err := os.Open(fs.Arg(i))
		if err != nil {
			fmt.Fprintf(stderr, "mcmetrics: %v\n", err)
			return 1
		}
		trails[i], err = snapshot.ReadAudit(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "mcmetrics: %s: %v\n", fs.Arg(i), err)
			return 1
		}
	}
	d := snapshot.Diverge(trails[0], trails[1])
	fmt.Fprintln(stdout, d.String())
	if d == nil {
		return 0
	}
	return 1
}

// parsePageSpec parses "va" or "space/va"; va accepts 0x-prefixed hex or
// decimal. A bare va matches the page in any address space.
func parsePageSpec(s string) (space int32, anySpace bool, va uint64, err error) {
	vaStr := s
	anySpace = true
	if i := strings.IndexByte(s, '/'); i >= 0 {
		sp, err := strconv.ParseInt(s[:i], 10, 32)
		if err != nil || sp < 0 {
			return 0, false, 0, fmt.Errorf("bad page spec %q: space must be a non-negative integer", s)
		}
		space, anySpace, vaStr = int32(sp), false, s[i+1:]
	}
	va, err = strconv.ParseUint(vaStr, 0, 64)
	if err != nil {
		return 0, false, 0, fmt.Errorf("bad page spec %q: va must be 0x-hex or decimal", s)
	}
	return space, anySpace, va, nil
}

func labels(runs []metrics.RunExport) string {
	out := make([]string, len(runs))
	for i, r := range runs {
		out[i] = r.Label
	}
	return strings.Join(out, ", ")
}

func summarize(stdout io.Writer, r metrics.RunExport, maxEvents int) {
	fmt.Fprintf(stdout, "== %s  (virtual time %v)\n", r.Label, sim.Duration(r.Now))
	if len(r.Counters) > 0 {
		fmt.Fprintln(stdout, "counters:")
		for _, c := range r.Counters {
			fmt.Fprintf(stdout, "  %-28s %12d\n", c.Name, c.Value)
		}
	}
	if len(r.Gauges) > 0 {
		fmt.Fprintln(stdout, "gauges:")
		for _, g := range r.Gauges {
			fmt.Fprintf(stdout, "  %-28s last=%d max=%d\n", g.Name, g.Last, g.Max)
		}
	}
	if len(r.Histograms) > 0 {
		fmt.Fprintln(stdout, "histograms:")
		fmt.Fprintf(stdout, "  %-28s %10s %14s %12s %12s %12s %12s\n", "name", "n", "mean", "p50", "p99", "p999", "max")
		for _, h := range r.Histograms {
			mean := int64(0)
			if h.N > 0 {
				mean = h.Sum / h.N
			}
			fmt.Fprintf(stdout, "  %-28s %10d %14d %12d %12d %12d %12d\n",
				h.Name, h.N, mean, h.P50, h.P99, h.P999, h.Max)
		}
		fmt.Fprintln(stdout, "  (quantiles interpolate within log2 buckets, clamped to [min, max])")
	}
	if len(r.Vmstat) > 0 {
		fmt.Fprintln(stdout, "vmstat:")
		for _, c := range r.Vmstat {
			fmt.Fprintf(stdout, "  %-28s %12d\n", c.Name, c.Value)
		}
	}
	if s := r.Series; s != nil {
		fmt.Fprintf(stdout, "series: %d window(s) of %v (see `mcmetrics series`)\n",
			len(s.Windows), sim.Duration(s.WindowNS))
	}
	if l := r.Lifecycle; l != nil {
		fmt.Fprintf(stdout, "lifecycle: %d traced page(s), sample_mod=%d (see `mcmetrics timeline`, `mcmetrics pingpong`)\n",
			len(l.Pages), l.SampleMod)
	}
	if se := r.SLO; se != nil {
		met := 0
		for _, o := range se.Objectives {
			if o.Met {
				met++
			}
		}
		fmt.Fprintf(stdout, "slo: %d/%d objective(s) met (see `mcmetrics slo`)\n", met, len(se.Objectives))
	}
	if f := r.Faults; f != nil {
		fmt.Fprintf(stdout, "faults: %d injected window(s), %d dropped\n", len(f.Windows), f.Dropped)
	}
	if t := r.Trace; t != nil {
		fmt.Fprintf(stdout, "trace: %d events (capacity %d, %d dropped)\n", len(t.Events), t.Capacity, t.Dropped)
		start := len(t.Events) - maxEvents
		if start < 0 {
			start = 0
		}
		if start > 0 {
			fmt.Fprintf(stdout, "  ... %d earlier events\n", start)
		}
		for _, ev := range t.Events[start:] {
			fmt.Fprintf(stdout, "  %14s %-10s", sim.Duration(ev.At).String(), ev.Kind)
			switch ev.Kind {
			case "promote", "demote":
				fmt.Fprintf(stdout, " node %d -> %d, %d page(s)", ev.From, ev.To, ev.Pages)
			case "scan":
				fmt.Fprintf(stdout, " %s work=%v", ev.Name, sim.Duration(ev.Work))
			case "fault", "hint-fault":
				fmt.Fprintf(stdout, " va=%#x", ev.VA)
			}
			fmt.Fprintln(stdout)
		}
	}
}
