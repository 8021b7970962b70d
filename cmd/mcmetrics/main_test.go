package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// exec drives the CLI entry point against argv and returns (exit, stdout,
// stderr). The golden fixture under testdata carries two runs: an
// instrumented "demo/multiclock" with series and lifecycle sections
// (including a known ping-pong page at 0/0x2000) and a bare "demo/static".
func exec(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

const golden = "testdata/golden.json"

func TestValidateGolden(t *testing.T) {
	code, out, _ := exec(t, "-validate", golden)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "valid (version 1, 2 runs)") {
		t.Fatalf("unexpected validate output: %q", out)
	}
}

func TestSummaryMentionsSections(t *testing.T) {
	code, out, _ := exec(t, "-run", "demo/multiclock", golden)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{
		"== demo/multiclock",
		"series: 2 window(s) of 10.000ms",
		"lifecycle: 3 traced page(s), sample_mod=1",
		"migration_latency_ns",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestLegacyCSV(t *testing.T) {
	code, out, _ := exec(t, "-csv", golden)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.HasPrefix(out, "label,histogram,le,count,n,sum\n") {
		t.Fatalf("csv header missing:\n%s", out)
	}
	if !strings.Contains(out, "demo/multiclock,migration_latency_ns,1023,1,2,3000") {
		t.Fatalf("bucket row missing:\n%s", out)
	}
}

func TestTimelineLadder(t *testing.T) {
	code, out, _ := exec(t, "timeline", "0/0x1000", golden)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "page 0/0x1000  (1 migration(s), 8 event(s))") {
		t.Fatalf("timeline header missing:\n%s", out)
	}
	// The full ladder, in order.
	rungs := []string{"birth", "access", "promote-select", "putback", "promoted"}
	pos := 0
	for _, r := range rungs {
		i := strings.Index(out[pos:], r)
		if i < 0 {
			t.Fatalf("rung %q missing or out of order:\n%s", r, out)
		}
		pos += i
	}
}

func TestTimelineBareVAMatchesAllSpaces(t *testing.T) {
	// va 0x1000 exists in spaces 0 and 1; a bare spec prints both.
	code, out, _ := exec(t, "timeline", "4096", golden)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "page 0/0x1000") || !strings.Contains(out, "page 1/0x1000") {
		t.Fatalf("bare va did not match both spaces:\n%s", out)
	}
}

func TestTimelineUntracedPage(t *testing.T) {
	code, _, errb := exec(t, "timeline", "0xdead000", golden)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errb, "not traced") {
		t.Fatalf("stderr: %q", errb)
	}
}

func TestTimelineBadSpec(t *testing.T) {
	for _, spec := range []string{"zzz", "-3/0x10", "1/xyz"} {
		if code, _, _ := exec(t, "timeline", spec, golden); code != 2 {
			t.Fatalf("spec %q: exit %d, want 2", spec, code)
		}
	}
}

func TestPingpongRanking(t *testing.T) {
	code, out, _ := exec(t, "pingpong", "--top", "2", golden)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	// 0/0x2000 ping-pongs 6 times; 1/0x1000 migrated twice; 0/0x1000 once
	// (cut by --top 2).
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var ranks []string
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) == 5 && (f[0] == "1" || f[0] == "2") {
			ranks = append(ranks, f[0]+" "+f[1]+"/"+f[2]+" x"+f[3])
		}
	}
	want := []string{"1 0/0x2000 x6", "2 1/0x1000 x2"}
	if len(ranks) != 2 || ranks[0] != want[0] || ranks[1] != want[1] {
		t.Fatalf("ranking = %v, want %v\n%s", ranks, want, out)
	}
	if strings.Contains(out, "0x1000 ") && strings.Contains(out, " 1 ") && len(lines) > 4+2 {
		// --top 2 must have cut the single-migration page.
		for _, l := range lines {
			if strings.HasPrefix(strings.TrimSpace(l), "3 ") {
				t.Fatalf("--top 2 printed a third rank:\n%s", out)
			}
		}
	}
}

func TestPingpongWithoutLifecycle(t *testing.T) {
	code, _, errb := exec(t, "pingpong", "-run", "demo/static", golden)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errb, "lifecycle") {
		t.Fatalf("stderr: %q", errb)
	}
}

func TestSeriesCSV(t *testing.T) {
	code, out, _ := exec(t, "series", golden)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 1+4 { // header + 2 windows × 2 nodes
		t.Fatalf("series rows = %d, want 5:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "run,window,start_ns,end_ns,node,tier,") {
		t.Fatalf("header: %q", lines[0])
	}
	// Window 0, node 0: occupancy columns then the window deltas and the
	// window's DRAM hit ratio 450/560.
	want := "demo/multiclock,0,0,10000000,0,DRAM,100,36,20,8,2,0,0,0,0,400,100,50,10,6,2,1,0,0,128,0.8036"
	if lines[1] != want {
		t.Fatalf("row 1:\n got %s\nwant %s", lines[1], want)
	}
}

func TestSeriesWithoutSection(t *testing.T) {
	if code, _, _ := exec(t, "series", "-run", "demo/static", golden); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
}

func TestUnknownRunLabel(t *testing.T) {
	code, _, errb := exec(t, "-run", "nope", golden)
	if code != 1 || !strings.Contains(errb, "no run labeled") {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
}

func TestMissingFile(t *testing.T) {
	if code, _, _ := exec(t, "-validate", "testdata/absent.json"); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
}

func TestUsageOnNoArgs(t *testing.T) {
	if code, _, _ := exec(t); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

// TestValidateTruncatedExport: a truncated export must fail validation with
// the typed parse error naming the file and the byte offset, not a bare
// "unexpected end of JSON input".
func TestValidateTruncatedExport(t *testing.T) {
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	trunc := filepath.Join(dir, "truncated.json")
	if err := os.WriteFile(trunc, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errOut := exec(t, "-validate", trunc)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	for _, want := range []string{trunc, "not valid JSON", "byte offset"} {
		if !strings.Contains(errOut, want) {
			t.Fatalf("stderr missing %q:\n%s", want, errOut)
		}
	}

	garbage := filepath.Join(dir, "garbage.json")
	if err := os.WriteFile(garbage, []byte("{\"version\": 1, \"runs\": [nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errOut = exec(t, "-validate", garbage)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	for _, want := range []string{garbage, "not valid JSON", "byte offset"} {
		if !strings.Contains(errOut, want) {
			t.Fatalf("stderr missing %q:\n%s", want, errOut)
		}
	}
}

// TestSLOReport renders the burn-rate report from the fixture's slo section.
func TestSLOReport(t *testing.T) {
	code, out, _ := exec(t, "slo", golden)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{
		"demo/multiclock",
		"spec: p99(migration_latency_ns) < 1.5µs over 10ms, 99%",
		"VIOLATED",
		"windows: 3/4 compliant (75%, target 99%)",
		"events: 1/2 over threshold; budget burn 50.00x",
		"alerts (1, burn >= 6.00x fast+slow):",
		"[10ms, 30ms) 2 windows, peak fast 50.00x slow 8.33x",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("slo report missing %q:\n%s", want, out)
		}
	}
	if _, again, _ := exec(t, "slo", golden); again != out {
		t.Fatal("slo report is not deterministic across invocations")
	}
}

func TestSLOWithoutSection(t *testing.T) {
	code, _, errb := exec(t, "slo", "-run", "demo/static", golden)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errb, "slo section") {
		t.Fatalf("stderr: %q", errb)
	}
}

// TestPerfettoRebuild: the subcommand rebuilds the timeline from an export
// deterministically and carries the fixture's lifecycle spans, fault window
// and burn-rate alert.
func TestPerfettoRebuild(t *testing.T) {
	code, out, _ := exec(t, "perfetto", golden)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.HasPrefix(out, `{"displayTimeUnit":"ns",`) {
		t.Fatalf("not a trace-event JSON envelope:\n%.120s", out)
	}
	for _, want := range []string{
		`"thread_name"`, "pm-slowdown", "burn-rate alert", "promote-ref",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %q", want)
		}
	}
	_, again, _ := exec(t, "perfetto", golden)
	if out != again {
		t.Fatal("perfetto output is not deterministic across invocations")
	}

	dir := t.TempDir()
	traceFile := filepath.Join(dir, "trace.json")
	code, _, errb := exec(t, "perfetto", "-o", traceFile, golden)
	if code != 0 || !strings.Contains(errb, traceFile) {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
	data, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != out {
		t.Fatal("-o file differs from stdout bytes")
	}
}

// TestDivergeCLI drives the audit-bisection subcommand on synthetic trails.
func TestDivergeCLI(t *testing.T) {
	dir := t.TempDir()
	line := func(op int, mem string) string {
		return fmt.Sprintf(`{"op":%d,"vtime_ns":%d,"hashes":{"mem":"%s","clock":"c"}}`, op, op*10, mem) + "\n"
	}
	a := filepath.Join(dir, "a.jsonl")
	b := filepath.Join(dir, "b.jsonl")
	if err := os.WriteFile(a, []byte(line(100, "x")+line(200, "y")), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(b, []byte(line(100, "x")+line(200, "y")), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, _ := exec(t, "diverge", a, b)
	if code != 0 || !strings.Contains(out, "identical") {
		t.Fatalf("identical trails: exit %d, out %q", code, out)
	}

	if err := os.WriteFile(b, []byte(line(100, "x")+line(200, "Z")), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, _ = exec(t, "diverge", a, b)
	if code != 1 {
		t.Fatalf("diverged trails: exit %d, want 1", code)
	}
	for _, want := range []string{"checkpoint 1", "op 200", "mem"} {
		if !strings.Contains(out, want) {
			t.Fatalf("diverge output missing %q:\n%s", want, out)
		}
	}

	code, _, errOut := exec(t, "diverge", a)
	if code != 2 || !strings.Contains(errOut, "usage") {
		t.Fatalf("missing-arg usage: exit %d, stderr %q", code, errOut)
	}
	code, _, errOut = exec(t, "diverge", a, filepath.Join(dir, "missing.jsonl"))
	if code != 1 {
		t.Fatalf("missing file: exit %d, want 1 (%s)", code, errOut)
	}
}
