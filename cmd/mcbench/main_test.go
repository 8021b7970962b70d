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

const msgNeedMetrics = "-series/-lifecycle/-slo/-trace-out ride the metrics export; set -metrics too\n"

// TestUsageRefusals pins every flag combination mcbench refuses before
// running anything: exit code 2, nothing on stdout, and the exact stderr
// line. The shared-flag messages are the ones mcsim prints. mcbench runs
// experiments only: the checkpoint flags are mcsim's and are not defined
// here.
func TestUsageRefusals(t *testing.T) {
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
		{"flag error wins over the listing", []string{"-series", "10ms"}, msgNeedMetrics},
		{"bad slo", with(exp, "-metrics", "m.json", "-slo", "p99(x < 1us"),
			"slo: cannot parse objective \"p99(x < 1us\" (want \"pNN(metric) < 400ns over 10ms[, 99.9%]\")\n"},
		{"bad tiers", with(exp, "-tiers", "dram:0,pm:64"), "-tiers: tier \"dram\" needs a positive frame count, got \"0\"\n"},
		{"bad chaos", with(exp, "-chaos", "x,0.1"), "mcbench: fault: bad seed in \"x,0.1\": strconv.ParseUint: parsing \"x\": invalid syntax\n"},
		{"negative deadline", with(exp, "-deadline", "-1s"), "mcbench: -deadline must be non-negative, got -1s\n"},
	}
	for _, c := range cases {
		code, stdout, stderr := mcbench(c.args...)
		if code != 2 || stdout != "" || stderr != c.want {
			t.Errorf("%s: exit=%d stdout=%q stderr=%q\n  want exit=2, empty stdout, stderr=%q", c.name, code, stdout, stderr, c.want)
		}
	}
	for _, name := range []string{"-snapshot", "-snapshot-every", "-restore", "-audit", "-invariants-every", "-soak", "-soak-ops"} {
		code, stdout, stderr := mcbench(with(exp, name, "1")...)
		if code != 2 || stdout != "" || !strings.HasPrefix(stderr, "flag provided but not defined: "+name+"\n") {
			t.Errorf("%s: exit=%d stdout=%q stderr=%q, want an undefined-flag usage failure", name, code, stdout, stderr)
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
