package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"multiclock/internal/metrics"
)

// mcbench runs the command in-process and returns exit code, stdout, stderr.
func mcbench(args ...string) (int, string, string) {
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func with(base []string, extra ...string) []string {
	return append(append([]string(nil), base...), extra...)
}

const (
	msgNeedMetrics = "-series/-lifecycle/-slo/-trace-out ride the metrics export; set -metrics too\n"
	msgCombined    = "-series/-lifecycle/-slo/-trace-out cannot be combined with -soak: one-shot samplers are not serializable\n"
	msgNeedSoak    = "mcbench: -snapshot/-restore/-audit/-invariants-every/-soak-ops need -soak POLICY (experiments are not checkpointable)\n"
)

// TestUsageRefusals pins every flag combination mcbench refuses before
// running anything: exit code 2, nothing on stdout, and the exact stderr
// line. The shared-flag messages are the ones mcsim prints.
func TestUsageRefusals(t *testing.T) {
	exp := []string{"-exp", "fig5", "-quick"}
	soak := []string{"-soak", "multiclock", "-quick"}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"series without metrics", with(exp, "-series", "10ms"), msgNeedMetrics},
		{"lifecycle without metrics", with(exp, "-lifecycle", "1"), msgNeedMetrics},
		{"slo without metrics", with(exp, "-slo", "p99(x_ns) < 1us over 1ms"), msgNeedMetrics},
		{"trace-out without metrics", with(exp, "-trace-out", "t.json"), msgNeedMetrics},
		{"flag error wins over the listing", []string{"-series", "10ms"}, msgNeedMetrics},
		{"bad slo", with(exp, "-metrics", "m.json", "-slo", "p99(x < 1us"),
			"slo: cannot parse objective \"p99(x < 1us\" (want \"pNN(metric) < 400ns over 10ms[, 99.9%]\")\n"},
		{"bad tiers", with(exp, "-tiers", "dram:0,pm:64"), "-tiers: tier \"dram\" needs a positive frame count, got \"0\"\n"},
		{"bad chaos", with(exp, "-chaos", "x,0.1"), "mcbench: fault: bad seed in \"x,0.1\": strconv.ParseUint: parsing \"x\": invalid syntax\n"},
		{"negative deadline", with(exp, "-deadline", "-1s"), "mcbench: -deadline must be non-negative, got -1s\n"},
		{"negative cadence", with(soak, "-snapshot-every", "-1"), "-snapshot-every must be non-negative\n"},
		{"cadence without sink", with(soak, "-snapshot-every", "100"), "-snapshot-every needs -snapshot or -audit to do anything\n"},
		{"snapshot without cadence", with(soak, "-snapshot", "s.mcsnap"), "-snapshot/-audit need -snapshot-every N to set the checkpoint cadence\n"},
		{"snapshot without soak", with(exp, "-snapshot", "s.mcsnap", "-snapshot-every", "100"), msgNeedSoak},
		{"restore without soak", []string{"-restore", "s.mcsnap"}, msgNeedSoak},
		{"invariants without soak", with(exp, "-invariants-every", "100"), msgNeedSoak},
		{"soak-ops without soak", with(exp, "-soak-ops", "100"), msgNeedSoak},
		{"soak with exp", with(soak, "-exp", "fig5"), "mcbench: -soak is its own mode; drop -exp\n"},
		// A requested sink is attached or refused, never dropped: a soak is
		// a stepped run and refuses all four the same way.
		{"soak with series", with(soak, "-metrics", "m.json", "-series", "10ms"), msgCombined},
		{"soak with lifecycle", with(soak, "-metrics", "m.json", "-lifecycle", "1"), msgCombined},
		{"soak with slo", with(soak, "-metrics", "m.json", "-slo", "p99(x_ns) < 1us over 1ms"), msgCombined},
		{"soak with trace-out", with(soak, "-metrics", "m.json", "-trace-out", "t.json"), msgCombined},
		{"checkpointed soak with series", with(soak, "-snapshot", "s.mcsnap", "-snapshot-every", "100", "-metrics", "m.json", "-series", "10ms"), msgCombined},
	}
	for _, c := range cases {
		code, stdout, stderr := mcbench(c.args...)
		if code != 2 || stdout != "" || stderr != c.want {
			t.Errorf("%s: exit=%d stdout=%q stderr=%q\n  want exit=2, empty stdout, stderr=%q", c.name, code, stdout, stderr, c.want)
		}
	}
}

// TestListing: -list prints the ids and succeeds; no mode at all prints the
// same listing as a usage failure.
func TestListing(t *testing.T) {
	code, listed, _ := mcbench("-list")
	if code != 0 || !strings.Contains(listed, "  fig5\n") || !strings.Contains(listed, "  table2 (module inventory / LoC)\n") {
		t.Fatalf("-list: exit %d\n%s", code, listed)
	}
	if code, bare, _ := mcbench(); code != 2 || bare != listed {
		t.Fatalf("no arguments: exit %d\n%s", code, bare)
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
		{[]string{"-exp", "bogus"}, 1, "==== bogus ====\nerror: bench: unknown experiment \"bogus\"", "mcbench: 1 of 1 experiments failed\n"},
	} {
		code, stdout, stderr := mcbench(c.args...)
		if code != c.code || !strings.HasPrefix(stdout, c.stdout) || !strings.HasSuffix(stderr, c.stderr) {
			t.Errorf("%v: exit %d (want %d)\n%s%s", c.args, code, c.code, stdout, stderr)
		}
	}
}

// readExport loads and schema-validates a metrics file.
func readExport(t *testing.T, path string) *metrics.Export {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := metrics.ReadExport(data)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return ex
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
	_, plain, _ := mcbench("-exp", "fig9", "-quick", "-parallel", "2")
	code, report, stderr := mcbench("-exp", "fig9", "-quick", "-parallel", "2", "-metrics", m, "-trace-out", tr,
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

// TestSoakResumeAndExport drives the soak mode end to end: a checkpointed
// soak, the same soak resumed from its final checkpoint (same report), the
// metrics export labeled soak/<policy>, and the tier spec reaching the
// session.
func TestSoakResumeAndExport(t *testing.T) {
	dir := t.TempDir()
	snap, m := filepath.Join(dir, "s.mcsnap"), filepath.Join(dir, "m.json")
	soak := []string{"-soak", "nimble", "-quick", "-soak-ops", "1500", "-seed", "5", "-chaos", "7,0.01"}
	code, first, stderr := mcbench(with(soak, "-snapshot", snap, "-snapshot-every", "4000", "-invariants-every", "3000",
		"-metrics", m, "-trace-events", "8")...)
	if code != 0 || !strings.HasPrefix(first, "soak: policy=nimble workloads=A,B,C,F,W,D records=16000 ops/workload=1500 seed=5\n") {
		t.Fatalf("soak: exit %d\n%s%s", code, first, stderr)
	}
	if ex := readExport(t, m); len(ex.Runs) != 1 || ex.Runs[0].Label != "soak/nimble" || ex.Runs[0].Trace == nil {
		t.Fatalf("unexpected export: %+v", ex.Runs)
	}
	// The snapshot's own recipe wins on restore: the policy named on the
	// command line is ignored.
	code, resumed, stderr := mcbench("-soak", "static", "-restore", snap)
	if code != 0 || resumed != first {
		t.Fatalf("resumed soak: exit %d\n%s\nfirst:\n%s\nresumed:\n%s", code, stderr, first, resumed)
	}
	code, tiered, stderr := mcbench("-soak", "multiclock", "-quick", "-soak-ops", "300", "-tiers", "dram:512,cxl:1024,pm:8192")
	if code != 0 || !strings.Contains(tiered, " tiers=dram:512,cxl:1024,pm:8192\n") || !strings.Contains(tiered, "CXL") {
		t.Fatalf("tiered soak: exit %d\n%s%s", code, tiered, stderr)
	}
	// Any policy checkpoints: one outside the original seven, resumed.
	code, first, stderr = mcbench("-soak", "thermostat", "-quick", "-soak-ops", "400", "-snapshot", snap, "-snapshot-every", "1000")
	if code != 0 {
		t.Fatalf("thermostat soak: exit %d\n%s", code, stderr)
	}
	if code, resumed, stderr = mcbench("-soak", "thermostat", "-restore", snap); code != 0 || resumed != first {
		t.Fatalf("resumed thermostat soak: exit %d\n%s\nfirst:\n%s\nresumed:\n%s", code, stderr, first, resumed)
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
		code, stdout, stderr := mcbench("-exp", "bakeoff", "-quick", "-deadline", "10m", "-parallel", parallel)
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
