package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"multiclock/internal/bench"
	"multiclock/internal/metrics"
	"multiclock/internal/traceexport"
)

// mcsim runs the command in-process and returns exit code, stdout, stderr.
func mcsim(args ...string) (int, string, string) {
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// small is a YCSB-A configuration that faults, demotes and finishes in
// milliseconds of host time.
var small = []string{"-policy", "multiclock", "-workload", "A", "-records", "2000", "-ops", "20000", "-dram", "256", "-pm", "2048"}

func with(base []string, extra ...string) []string {
	return append(append([]string(nil), base...), extra...)
}

const (
	msgNeedMetrics = "-series/-lifecycle/-slo/-trace-out ride the metrics export; set -metrics too\n"
	msgCadence     = "-snapshot/-audit need -snapshot-every N to set the checkpoint cadence\n"
)

// msgCombined is the refusal of a sink in a run the named flags checkpoint.
func msgCombined(by string) string {
	return "-series/-lifecycle/-slo/-trace-out cannot be combined with " + by + ": one-shot samplers are not serializable\n"
}

// TestUsageRefusals pins every flag combination mcsim refuses before
// building a machine: exit code 2, nothing on stdout, and the exact stderr
// line.
func TestUsageRefusals(t *testing.T) {
	snap := []string{"-snapshot", "s.mcsnap", "-snapshot-every", "100"}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"series without metrics", []string{"-series", "10ms"}, msgNeedMetrics},
		{"lifecycle without metrics", []string{"-lifecycle", "1"}, msgNeedMetrics},
		{"slo without metrics", []string{"-slo", "p99(x_ns) < 1us over 1ms"}, msgNeedMetrics},
		{"trace-out without metrics", []string{"-trace-out", "t.json"}, msgNeedMetrics},
		{"bad slo", []string{"-metrics", "m.json", "-slo", "p99(x < 1us"},
			"slo: cannot parse objective \"p99(x < 1us\" (want \"pNN(metric) < 400ns over 10ms[, 99.9%]\")\n"},
		{"bad tiers", []string{"-tiers", "hbm:64"}, "-tiers: unknown tier \"hbm\" (have dram, cxl, pm, ssd)\n"},
		{"bad chaos", []string{"-chaos", "7"}, "mcsim: fault: spec \"7\" is not seed,rate\n"},
		{"negative cadence", []string{"-snapshot-every", "-1"}, "-snapshot-every must be non-negative\n"},
		{"negative invariants", []string{"-invariants-every", "-1"}, "-invariants-every must be non-negative\n"},
		{"cadence without sink", []string{"-snapshot-every", "100"}, "-snapshot-every needs -snapshot or -audit to do anything\n"},
		{"snapshot without cadence", []string{"-snapshot", "s.mcsnap"}, msgCadence},
		{"audit without cadence", []string{"-audit", "a.jsonl"}, msgCadence},
		{"unknown policy", []string{"-policy", "bogus"},
			"mcsim: multiclock: unknown policy \"bogus\" (have static, multiclock, nimble, at-cpm, at-opm, memory-mode, thermostat, amp-lfu, amp-lru, amp-random, nomad, s3fifo, multiclock-gated, nimble-gated)\n"},
		{"empty policy list", []string{"-policy", ", ,"}, "mcsim: -policy needs at least one policy name\n"},
		{"record with two policies", []string{"-policy", "static,nimble", "-record", "x.mctr"},
			"mcsim: -record needs a single policy (the trace is one machine's access stream)\n"},
		// A snapshot holds one machine and only MCSNAP's state; the
		// refusal names the flags that checkpoint the run.
		{"checkpointing with two policies", with(snap, "-policy", "static,nimble"),
			"mcsim: -snapshot needs a single policy (a snapshot holds one machine)\n"},
		{"restore with two policies", []string{"-restore", "s.mcsnap", "-policy", "static,nimble"},
			"mcsim: -restore needs a single policy (a snapshot holds one machine)\n"},
		{"checkpointing with record", with(snap, "-record", "x.mctr"),
			"mcsim: -record cannot be combined with -snapshot: the trace recorder is not serializable\n"},
		{"audit with record", []string{"-audit", "a.jsonl", "-snapshot-every", "100", "-record", "x.mctr"},
			"mcsim: -record cannot be combined with -audit: the trace recorder is not serializable\n"},
		// The trace and graph drivers have no Session, so no stepped form.
		{"checkpointing with gapbs", with(snap, "-gapbs", "PR"),
			"mcsim: -snapshot supports YCSB workloads only (no -gapbs/-replay)\n"},
		{"invariant stepping with gapbs", []string{"-invariants-every", "1000", "-gapbs", "PR"},
			"mcsim: -invariants-every supports YCSB workloads only (no -gapbs/-replay)\n"},
		{"restore with replay", []string{"-restore", "s.mcsnap", "-replay", "x.mctr"},
			"mcsim: -restore supports YCSB workloads only (no -gapbs/-replay)\n"},
		// A requested sink is attached or refused, never dropped: every
		// checkpointing flag refuses all four the same way.
		{"checkpointing with series", with(snap, "-metrics", "m.json", "-series", "10ms"), msgCombined("-snapshot")},
		{"restore with trace-out", []string{"-restore", "s.mcsnap", "-metrics", "m.json", "-trace-out", "t.json"}, msgCombined("-restore")},
		{"audit with lifecycle", []string{"-audit", "a.jsonl", "-snapshot-every", "100", "-metrics", "m.json", "-lifecycle", "1"}, msgCombined("-audit")},
		{"checkpointing with slo", with(snap, "-metrics", "m.json", "-slo", "p99(x_ns) < 1us over 1ms"), msgCombined("-snapshot")},
		{"unknown kernel", []string{"-gapbs", "FOO"}, "mcsim: unknown kernel \"FOO\" (have BFS, SSSP, PR, CC, BC, TC)\n"},
		{"one vertex", []string{"-gapbs", "PR", "-vertices", "1"}, "mcsim: -gapbs needs at least 2 vertices and a positive degree, got -vertices 1 -degree 8\n"},
		{"no vertices", []string{"-gapbs", "PR", "-vertices", "0"}, "mcsim: -gapbs needs at least 2 vertices and a positive degree, got -vertices 0 -degree 8\n"},
		{"negative vertices", []string{"-gapbs", "BFS", "-vertices", "-3"}, "mcsim: -gapbs needs at least 2 vertices and a positive degree, got -vertices -3 -degree 8\n"},
		{"zero degree", []string{"-gapbs", "PR", "-degree", "0"}, "mcsim: -gapbs needs at least 2 vertices and a positive degree, got -vertices 40000 -degree 0\n"},
		{"negative deadline", []string{"-deadline", "-1s"}, "mcsim: -deadline must be non-negative, got -1s\n"},
		{"negative interval", []string{"-interval", "-5ms"}, "mcsim: -interval must be non-negative, got -5ms\n"},
		{"quick without exp", []string{"-quick"}, "mcsim: -quick needs -exp\n"},
	}
	for _, c := range cases {
		code, stdout, stderr := mcsim(c.args...)
		if code != 2 || stdout != "" || stderr != c.want {
			t.Errorf("%s: exit=%d stdout=%q stderr=%q\n  want exit=2, empty stdout, stderr=%q", c.name, code, stdout, stderr, c.want)
		}
	}
	if code, _, stderr := mcsim("-no-such-flag"); code != 2 || !strings.Contains(stderr, "flag provided but not defined") {
		t.Errorf("unknown flag: exit=%d stderr=%q", code, stderr)
	}

	// The Session refuses a recipe it cannot run, the same way whether or
	// not the run is stepped: exit 1 before any output.
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-ops", "-5"}, "mcsim: multiclock: bench: a session needs positive records and ops, got 20000/-5\n"},
		{[]string{"-records", "0"}, "mcsim: multiclock: bench: a session needs positive records and ops, got 0/500000\n"},
	} {
		for _, extra := range [][]string{nil, {"-invariants-every", "100"}} {
			args := with(c.args, extra...)
			code, stdout, stderr := mcsim(args...)
			if code != 1 || stdout != "" || stderr != c.want {
				t.Errorf("%v: exit=%d stdout=%q stderr=%q\n  want exit=1, empty stdout, stderr=%q", args, code, stdout, stderr, c.want)
			}
		}
	}
}

// TestExperimentUsageRefusals pins what -exp refuses before running
// anything: the run flags it reads fail under the same rules as a single
// run, and every flag that describes one machine or steps it is refused by
// name. Exit code 2, nothing on stdout, and the exact stderr line.
func TestExperimentUsageRefusals(t *testing.T) {
	exp := []string{"-exp", "fig5", "-quick"}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"series without metrics", with(exp, "-series", "10ms"), msgNeedMetrics},
		{"lifecycle without metrics", with(exp, "-lifecycle", "1"), msgNeedMetrics},
		{"slo without metrics", with(exp, "-slo", "p99(x_ns) < 1us over 1ms"), msgNeedMetrics},
		{"trace-out without metrics", with(exp, "-trace-out", "t.json"), msgNeedMetrics},
		{"bad slo", with(exp, "-metrics", "m.json", "-slo", "p99(x < 1us"),
			"slo: cannot parse objective \"p99(x < 1us\" (want \"pNN(metric) < 400ns over 10ms[, 99.9%]\")\n"},
		{"bad tiers", with(exp, "-tiers", "dram:0,pm:64"), "-tiers: tier \"dram\" needs a positive frame count, got \"0\"\n"},
		{"bad chaos", with(exp, "-chaos", "x,0.1"), "mcsim: fault: bad seed in \"x,0.1\": strconv.ParseUint: parsing \"x\": invalid syntax\n"},
		{"negative deadline", with(exp, "-deadline", "-1s"), "mcsim: -deadline must be non-negative, got -1s\n"},
	}
	for _, c := range cases {
		code, stdout, stderr := mcsim(c.args...)
		if code != 2 || stdout != "" || stderr != c.want {
			t.Errorf("%s: exit=%d stdout=%q stderr=%q\n  want exit=2, empty stdout, stderr=%q", c.name, code, stdout, stderr, c.want)
		}
	}

	// Every flag that describes one machine or steps it is refused by name.
	// Every flag mcsim defines is either read by -exp or on one of these
	// lists.
	oneMachine := []string{"-policy=static", "-workload=B", "-sequence", "-gapbs=PR", "-records=1", "-ops=1",
		"-vertices=1", "-degree=1", "-dram=1", "-pm=1", "-interval=1ms", "-record=x", "-replay=x", "-replay-fast"}
	checkpoint := []string{"-snapshot=s", "-snapshot-every=1", "-restore=s", "-audit=a", "-invariants-every=1"}
	sorted := map[string]bool{}
	for name := range expReads {
		sorted[name] = true
	}
	for _, arg := range append(oneMachine, checkpoint...) {
		name, _, _ := strings.Cut(arg[1:], "=")
		sorted[name] = true
		want := "mcsim: -" + name + " does not apply to -exp (the experiments build their own machines)\n"
		if code, stdout, stderr := mcsim(with(exp, arg)...); code != 2 || stdout != "" || stderr != want {
			t.Errorf("%s under -exp: exit=%d stdout=%q stderr=%q\n  want exit=2, empty stdout, stderr=%q", arg, code, stdout, stderr, want)
		}
	}
	_, _, help := mcsim("-h")
	defined := 0
	for _, ln := range strings.Split(help, "\n") {
		if name, ok := strings.CutPrefix(ln, "  -"); ok {
			defined++
			if name = strings.Fields(name)[0]; !sorted[name] {
				t.Errorf("-%s is neither read by -exp nor refused by it", name)
			}
		}
	}
	if defined != len(sorted) {
		t.Errorf("mcsim defines %d flags, the lists sort %d", defined, len(sorted))
	}
}

// outcome extracts the machine-state lines of a report: everything from
// "virtual time:" on (virtual time, access/alloc/migration counters).
func outcome(t *testing.T, report string) string {
	t.Helper()
	i := strings.Index(report, "virtual time:")
	if i < 0 {
		t.Fatalf("no virtual time line in:\n%s", report)
	}
	return report[i:]
}

// TestSteppedRunSimulatesTheSameMachine: the check-only and checkpoint
// flags must not change what is simulated. The same command with and
// without them prints the same virtual time and the same counters.
func TestSteppedRunSimulatesTheSameMachine(t *testing.T) {
	dir := t.TempDir()
	for _, base := range [][]string{
		small,
		with(small, "-chaos", "7,0.01", "-seed", "3"),
		with(small, "-tiers", "dram:128,cxl:256,pm:2048", "-policy", "nomad"),
		with(small, "-sequence", "-ops", "4000"),
	} {
		code, straight, stderr := mcsim(base...)
		if code != 0 {
			t.Fatalf("%v: exit %d\n%s", base, code, stderr)
		}
		for _, extra := range [][]string{
			{"-invariants-every", "5000"},
			{"-snapshot", filepath.Join(dir, "s.mcsnap"), "-snapshot-every", "7000"},
		} {
			code, stepped, stderr := mcsim(with(base, extra...)...)
			if code != 0 {
				t.Fatalf("%v %v: exit %d\n%s", base, extra, code, stderr)
			}
			if got, want := outcome(t, stepped), outcome(t, straight); got != want {
				t.Errorf("%v: adding %v changed the simulated machine\nstraight:\n%sstepped:\n%s", base, extra, want, got)
			}
		}
	}
}

// TestRestoreResumesTheReport: a run checkpointed to completion and a run
// restored from that checkpoint print the same report. A restore that must
// export metrics from a snapshot without a telemetry registry fails before
// its first step: nothing printed, the snapshot untouched.
func TestRestoreResumesTheReport(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "s.mcsnap")
	code, first, stderr := mcsim(with(small, "-snapshot", snap, "-snapshot-every", "6000")...)
	if code != 0 {
		t.Fatalf("checkpointed run: exit %d\n%s", code, stderr)
	}
	code, resumed, stderr := mcsim("-restore", snap)
	if code != 0 || resumed != first {
		t.Fatalf("restored run: exit %d\n%s\nfirst:\n%s\nresumed:\n%s", code, stderr, first, resumed)
	}
	if code, _, stderr := mcsim("-restore", filepath.Join(t.TempDir(), "missing.mcsnap")); code != 1 || !strings.HasPrefix(stderr, "mcsim: ") {
		t.Fatalf("missing snapshot: exit %d stderr %q", code, stderr)
	}

	before, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	m := filepath.Join(t.TempDir(), "m.json")
	code, stdout, stderr := mcsim("-restore", snap, "-snapshot", snap, "-snapshot-every", "6000", "-metrics", m)
	if want := "mcsim: " + snap + ": snapshot carries no telemetry registry; cannot export metrics\n"; code != 1 || stdout != "" || stderr != want {
		t.Errorf("restore without a registry: exit=%d stdout=%q stderr=%q, want exit=1, empty stdout, stderr=%q", code, stdout, stderr, want)
	}
	if after, err := os.ReadFile(snap); err != nil || !bytes.Equal(after, before) {
		t.Errorf("the refused restore rewrote the snapshot (err %v)", err)
	}
	if _, err := os.Stat(m); !os.IsNotExist(err) {
		t.Errorf("the refused restore wrote a metrics file (stat: %v)", err)
	}
}

// quickSequence is the paper's YCSB sequence at the experiments' -quick
// scale.
var quickSequence = []string{"-sequence", "-records", "16000", "-dram", "1024", "-pm", "8192", "-interval", "10ms"}

// TestSoakResumeAndExport drives a checkpointed sequence end to end: nimble
// under fault injection with invariant sweeps and a metrics export,
// resumed from its final checkpoint to the same report and export; the
// snapshot's own recipe winning over -policy; the tier spec reaching the
// session; and a policy outside the original seven resumed.
func TestSoakResumeAndExport(t *testing.T) {
	dir := t.TempDir()
	snap, m, m2 := filepath.Join(dir, "s.mcsnap"), filepath.Join(dir, "m.json"), filepath.Join(dir, "m2.json")
	soak := with(quickSequence, "-policy", "nimble", "-ops", "1500", "-seed", "5", "-chaos", "7,0.01")
	code, first, stderr := mcsim(with(soak, "-snapshot", snap, "-snapshot-every", "4000", "-invariants-every", "3000",
		"-metrics", m, "-trace-events", "8")...)
	if code != 0 || !strings.HasPrefix(first, "run: policy=nimble workloads=A,B,C,F,W,D records=16000 ops/workload=1500 seed=5\n") {
		t.Fatalf("checkpointed sequence: exit %d\n%s%s", code, first, stderr)
	}
	if ex := readExport(t, m); len(ex.Runs) != 1 || ex.Runs[0].Label != "nimble" || ex.Runs[0].Trace == nil {
		t.Fatalf("unexpected export: %+v", ex.Runs)
	}
	// The snapshot's own recipe wins on restore: the policy named on the
	// command line is ignored.
	code, resumed, stderr := mcsim("-policy", "static", "-restore", snap, "-metrics", m2)
	if code != 0 || resumed != first {
		t.Fatalf("resumed sequence: exit %d\n%s\nfirst:\n%s\nresumed:\n%s", code, stderr, first, resumed)
	}
	if a, b := readFile(t, m), readFile(t, m2); !bytes.Equal(a, b) {
		t.Error("the resumed run's metrics export differs from the checkpointed run's")
	}
	code, tiered, stderr := mcsim(with(quickSequence, "-ops", "300", "-tiers", "dram:512,cxl:1024,pm:8192")...)
	if code != 0 || !strings.Contains(tiered, " tiers=dram:512,cxl:1024,pm:8192\n") || !strings.Contains(tiered, "CXL") {
		t.Fatalf("tiered sequence: exit %d\n%s%s", code, tiered, stderr)
	}
	// Any policy checkpoints: one outside the original seven, resumed.
	code, first, stderr = mcsim(with(quickSequence, "-policy", "thermostat", "-ops", "400", "-snapshot", snap, "-snapshot-every", "1000")...)
	if code != 0 {
		t.Fatalf("thermostat sequence: exit %d\n%s", code, stderr)
	}
	if code, resumed, stderr = mcsim("-policy", "thermostat", "-restore", snap); code != 0 || resumed != first {
		t.Fatalf("resumed thermostat sequence: exit %d\n%s\nfirst:\n%s\nresumed:\n%s", code, stderr, first, resumed)
	}
}

// TestDeterministicTwiceAcrossParallelism: the same multi-policy command
// prints the same bytes at -parallel 1, again, and at -parallel 4 — on a
// 3-tier hierarchy, and over every policy under fault injection.
func TestDeterministicTwiceAcrossParallelism(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
	}{
		{"3-tier", []string{"-tiers", "dram:1024,cxl:2048,pm:8192", "-policy", "multiclock,nomad,s3fifo", "-workload", "A", "-records", "4000", "-ops", "60000"}},
		{"every policy under chaos", with(small, "-policy", strings.Join(bench.PolicyNames(), ","), "-interval", "5ms", "-chaos", "7,0.01")},
	} {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			var want string
			for i, parallel := range []string{"1", "1", "4"} {
				code, stdout, stderr := mcsim(with(c.args, "-parallel", parallel)...)
				if code != 0 {
					t.Fatalf("-parallel %s: exit %d\n%s", parallel, code, stderr)
				}
				if i == 0 {
					want = stdout
				} else if stdout != want {
					t.Errorf("run %d at -parallel %s differs from the first at -parallel 1:\n%s\n---\n%s", i, parallel, stdout, want)
				}
			}
		})
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// readExport loads and schema-validates a metrics file.
func readExport(t *testing.T, path string) *metrics.Export {
	t.Helper()
	ex, err := metrics.ReadExport(readFile(t, path))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return ex
}

// TestExportsCarryEveryRequestedSink: a multi-policy run with the full
// instrumentation set writes one labeled run per policy, each with every
// requested section, plus the Perfetto timeline — byte-identical at every
// parallelism level, and without moving the report.
func TestExportsCarryEveryRequestedSink(t *testing.T) {
	dir := t.TempDir()
	base := with(small, "-policy", "multiclock,nimble,multiclock", "-chaos", "7,0.02")
	_, plain, _ := mcsim(base...)
	files := map[string][]byte{}
	for _, parallel := range []string{"1", "4"} {
		m, tr := filepath.Join(dir, "m"+parallel+".json"), filepath.Join(dir, "t"+parallel+".json")
		code, report, stderr := mcsim(with(base, "-parallel", parallel, "-metrics", m, "-trace-out", tr,
			"-series", "1ms", "-lifecycle", "4", "-slo", "p99(access_latency_pm_read_ns) < 1ns over 1ms")...)
		if code != 0 {
			t.Fatalf("exit %d\n%s", code, stderr)
		}
		if report != plain {
			t.Errorf("-parallel %s: instrumentation moved the report", parallel)
		}
		if !strings.Contains(stderr, "metrics: 3 run(s) written to "+m) || !strings.Contains(stderr, "trace: perfetto timeline written to "+tr) {
			t.Errorf("missing export announcements:\n%s", stderr)
		}
		ex := readExport(t, m)
		var labels []string
		migrated := false
		for _, r := range ex.Runs {
			labels = append(labels, r.Label)
			if r.Series == nil || r.Lifecycle == nil || r.SLO == nil || r.Topology == nil || r.Faults == nil || r.Trace == nil {
				t.Fatalf("run %s lacks a requested section", r.Label)
			}
			for _, p := range r.Lifecycle.Pages {
				migrated = migrated || p.Migrations > 0
			}
		}
		if !migrated {
			t.Error("no traced page migrated on an oversubscribed machine")
		}
		if got := strings.Join(labels, ","); got != "multiclock,multiclock#1,nimble" {
			t.Errorf("labels = %s", got)
		}
		for _, f := range []string{m, tr} {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if prev, ok := files[filepath.Base(f)[:1]]; ok && !bytes.Equal(prev, data) {
				t.Errorf("%s differs between -parallel 1 and 4", filepath.Base(f))
			}
			files[filepath.Base(f)[:1]] = data
		}
		// The in-run timeline is the post-hoc one: rebuilding it from the
		// written export (what `mcmetrics perfetto` prints) gives the same
		// bytes, so the export carries everything the trace shows.
		if !bytes.Equal(traceexport.Build(ex.Runs), files["t"]) {
			t.Errorf("-parallel %s: -trace-out differs from the timeline rebuilt from -metrics", parallel)
		}
	}
	if !strings.HasPrefix(plain, "==== multiclock ====\n") || strings.Count(plain, "==== ") != 3 {
		t.Errorf("multi-policy report lacks per-policy headers:\n%s", plain)
	}
}

// TestLatencyHistogramsFollowTheTopology: the export carries one access
// latency read/write pair per tier of the simulated hierarchy, and none for a
// tier the machine does not have.
func TestLatencyHistogramsFollowTheTopology(t *testing.T) {
	m := filepath.Join(t.TempDir(), "m.json")
	for _, c := range []struct{ tiers, want string }{
		{"", "dram_read dram_write pm_read pm_write"},
		{"dram:256,cxl:4096,ssd:*", "cxl_read cxl_write dram_read dram_write ssd_read ssd_write"},
		{"dram:128,cxl:256,pm:2048", "cxl_read cxl_write dram_read dram_write pm_read pm_write"},
	} {
		args := with(small, "-ops", "5000", "-metrics", m)
		if c.tiers != "" {
			args = with(args, "-tiers", c.tiers)
		}
		if code, _, stderr := mcsim(args...); code != 0 {
			t.Fatalf("-tiers %q: exit %d\n%s", c.tiers, code, stderr)
		}
		var got []string
		for _, h := range readExport(t, m).Runs[0].Histograms {
			if pair, ok := strings.CutPrefix(h.Name, "access_latency_"); ok {
				got = append(got, strings.TrimSuffix(pair, "_ns"))
			}
		}
		if strings.Join(got, " ") != c.want {
			t.Errorf("-tiers %q: access latency histograms %v, want %s", c.tiers, got, c.want)
		}
	}
}

// TestInvariantSweepsTakeEverySink: invariant sweeps are hooks between
// ops, so a multi-policy run with every sink writes the same report and
// byte-identical -metrics and -trace-out files with and without them.
func TestInvariantSweepsTakeEverySink(t *testing.T) {
	dir := t.TempDir()
	var want [3][]byte
	for i, extra := range [][]string{nil, {"-invariants-every", "1000"}} {
		m, tr := filepath.Join(dir, "m.json"), filepath.Join(dir, "t.json")
		code, report, stderr := mcsim(with(small, append([]string{"-policy", "multiclock,nimble", "-chaos", "7,0.01",
			"-metrics", m, "-trace-out", tr, "-series", "1ms", "-lifecycle", "4",
			"-slo", "p99(access_latency_pm_read_ns) < 1us over 1ms"}, extra...)...)...)
		if code != 0 {
			t.Fatalf("%v: exit %d\n%s", extra, code, stderr)
		}
		got := [3][]byte{[]byte(report), readFile(t, m), readFile(t, tr)}
		if i == 0 {
			want = got
			continue
		}
		for k, name := range []string{"report", "-metrics", "-trace-out"} {
			if !bytes.Equal(got[k], want[k]) {
				t.Errorf("%v changed the %s bytes", extra, name)
			}
		}
	}
}

// TestSteppedRunExportsMetrics: the stepped path writes the session's
// registry through the same export writer, labeled by policy.
func TestSteppedRunExportsMetrics(t *testing.T) {
	m := filepath.Join(t.TempDir(), "m.json")
	code, _, stderr := mcsim(with(small, "-invariants-every", "5000", "-metrics", m, "-trace-events", "16")...)
	if code != 0 || !strings.Contains(stderr, "metrics: 1 run(s) written to "+m) {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	if ex := readExport(t, m); len(ex.Runs) != 1 || ex.Runs[0].Label != "multiclock" || ex.Runs[0].Trace == nil {
		t.Fatalf("unexpected export: %+v", ex.Runs)
	}
}

// TestOtherDrivers smoke-tests the non-YCSB drivers and a failing run.
func TestOtherDrivers(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "x.mctr")
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-policy", "static", "-gapbs", "PR", "-vertices", "2000", "-degree", "4"}, "kernel time:"},
		{with(small, "-ops", "2000", "-record", trace), "accesses written to " + trace},
		{[]string{"-policy", "static", "-replay", trace, "-replay-fast"}, "replayed "},
		{with(small, "-workload", "E"), "\nE           unsupported\n"},
	} {
		code, stdout, stderr := mcsim(c.args...)
		if code != 0 || !strings.Contains(stdout, c.want) || !strings.Contains(stdout, "virtual time:") {
			t.Errorf("%v: exit %d, stdout lacks %q\n%s%s", c.args, code, c.want, stdout, stderr)
		}
	}
	code, _, stderr := mcsim(with(small, "-workload", "Z")...)
	if code != 1 || stderr != "mcsim: multiclock: ycsb: unknown workload \"Z\"\n" {
		t.Errorf("unknown workload: exit %d stderr %q", code, stderr)
	}
}

// TestListing: -exp list prints the experiment ids and succeeds.
func TestListing(t *testing.T) {
	code, listed, _ := mcsim("-exp", "list")
	if code != 0 || !strings.HasPrefix(listed, "experiments:\n") || !strings.Contains(listed, "  fig5\n") ||
		!strings.HasSuffix(listed, "  table2 (module inventory / LoC)\n  all\n") {
		t.Fatalf("-exp list: exit %d\n%s", code, listed)
	}
}

// TestExperimentRun: experiments stream in order under section headers, under
// fault injection too; an unknown id fails inline without aborting the
// batch's exit reporting.
func TestExperimentRun(t *testing.T) {
	for _, c := range []struct {
		args   []string
		code   int
		stdout string // prefix
		stderr string // suffix
	}{
		{[]string{"-exp", "table1"}, 0, "==== table1 ====\nTable I", ""},
		{[]string{"-exp", "fig5", "-quick", "-parallel", "4", "-chaos", "7,0.01", "-deadline", "10m"}, 0, "==== fig5 ====\nFig. 5", ""},
		{[]string{"-exp", "bogus"}, 1, "==== bogus ====\nerror: bench: unknown experiment \"bogus\"", "mcsim: 1 of 1 experiments failed\n"},
	} {
		code, stdout, stderr := mcsim(c.args...)
		if code != c.code || !strings.HasPrefix(stdout, c.stdout) || !strings.HasSuffix(stderr, c.stderr) {
			t.Errorf("%v: exit %d (want %d)\n%s%s", c.args, code, c.code, stdout, stderr)
		}
	}
}

// TestInstrumentedExperiment: an instrumented experiment writes one pooled
// run per machine with every requested section, plus the Perfetto timeline,
// and the report is the uninstrumented one.
func TestInstrumentedExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick fig9 experiment twice")
	}
	dir := t.TempDir()
	m, tr := filepath.Join(dir, "m.json"), filepath.Join(dir, "t.json")
	_, plain, _ := mcsim("-exp", "fig9", "-quick", "-parallel", "2")
	code, report, stderr := mcsim("-exp", "fig9", "-quick", "-parallel", "2", "-metrics", m, "-trace-out", tr,
		"-series", "10ms", "-lifecycle", "64", "-slo", "p99(access_latency_pm_read_ns) < 1ns over 1ms")
	if code != 0 || report != plain {
		t.Fatalf("exit %d, report moved=%v\n%s", code, report != plain, stderr)
	}
	if !strings.Contains(stderr, "metrics: 2 run(s) written to "+m) || !strings.Contains(stderr, "trace: perfetto timeline written to "+tr) {
		t.Errorf("missing export announcements:\n%s", stderr)
	}
	ex := readExport(t, m)
	for i, want := range []string{"fig9/multiclock", "fig9/nimble"} {
		r := ex.Runs[i]
		if r.Label != want || r.Series == nil || r.Lifecycle == nil || r.SLO == nil || r.Topology == nil || r.Trace == nil {
			t.Errorf("run %d: label %q or a requested section is missing", i, r.Label)
		}
	}
	if st, err := os.Stat(tr); err != nil || st.Size() == 0 {
		t.Errorf("trace file: %v", err)
	}
}

// TestBakeoffIsDeterministicAcrossParallelism: the competitor bake-off
// prints the same bytes at -parallel 1, again, and at -parallel 4.
func TestBakeoffIsDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick bake-off three times")
	}
	var want string
	for i, parallel := range []string{"1", "1", "4"} {
		code, stdout, stderr := mcsim("-exp", "bakeoff", "-quick", "-deadline", "10m", "-parallel", parallel)
		if code != 0 {
			t.Fatalf("-parallel %s: exit %d\n%s", parallel, code, stderr)
		}
		if i == 0 {
			want = stdout
		} else if stdout != want {
			t.Errorf("run %d at -parallel %s differs from the first at -parallel 1", i, parallel)
		}
	}
}
