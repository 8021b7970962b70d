package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runBench runs the command in-process and returns its exit code and
// output streams.
func runBench(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// contractRun runs one --trace pass at smoke scale and decodes the object
// on the last line.
func contractRun(t *testing.T, workload, seed, trace string) contractLine {
	t.Helper()
	code, stdout, stderr := runBench("--workload", workload, "--seed", seed, "--seconds", "0.01", "--trace", trace, "--scale", "smoke")
	if code != 0 {
		t.Fatalf("%s seed %s trace %s: exit %d\n%s\n%s", workload, seed, trace, code, stdout, stderr)
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var line contractLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("%s: last line is not the result object: %v\n%s", workload, err, lines[len(lines)-1])
	}
	if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
		t.Fatalf("%s seed %s trace %s: correct=%v attempted=%d failed=%d", workload, seed, trace, line.Correct, line.Attempted, line.Failed)
	}
	return line
}

func TestManifestIsBenchmarkJSON(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json is not what the metric tables define; regenerate it with\n\tgo run -C benchmarks . -manifest > BENCHMARK.json")
	}
	seen := map[string]bool{}
	for _, specs := range [][]metricSpec{endToEndSpecs, perLayer} {
		for _, s := range specs {
			if seen[s.Name] {
				t.Errorf("metric %s is declared twice", s.Name)
			}
			seen[s.Name] = true
		}
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
}

// TestSmokeEveryMetric runs both passes of every workload at smoke scale
// and holds the output to BENCHMARK.json: every metric named there is
// emitted, finite and carries its unit; simulated metrics repeat exactly at
// one seed and move with the seed.
func TestSmokeEveryMetric(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			checkMetrics := func(line contractLine, specs []metricSpec) {
				t.Helper()
				if len(line.Metrics) != len(specs) {
					t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(line.Metrics), len(specs))
				}
				for _, s := range specs {
					m, ok := line.Metrics[s.Name]
					if !ok {
						t.Errorf("%s is not emitted", s.Name)
						continue
					}
					if m.Unit != s.Unit {
						t.Errorf("%s has unit %q, want %q", s.Name, m.Unit, s.Unit)
					}
					if !finite(m.Value) {
						t.Errorf("%s is %v", s.Name, m.Value)
					}
				}
			}
			first := contractRun(t, w.name, "1", "0")
			again := contractRun(t, w.name, "1", "0")
			other := contractRun(t, w.name, "2", "0")
			checkMetrics(first, endToEndSpecs)
			moved := false
			for _, s := range endToEndSpecs {
				if first.Metrics[s.Name].Value == 0 {
					t.Errorf("%s is 0; end-to-end metrics must never be", s.Name)
				}
				if !s.exact {
					continue
				}
				if first.Metrics[s.Name].Value != again.Metrics[s.Name].Value {
					t.Errorf("%s is %v, then %v at the same seed", s.Name, first.Metrics[s.Name].Value, again.Metrics[s.Name].Value)
				}
				moved = moved || first.Metrics[s.Name].Value != other.Metrics[s.Name].Value
			}
			if !moved {
				t.Errorf("no simulated metric differs between seeds 1 and 2: the seed does not reach the inputs")
			}

			traced := contractRun(t, w.name, "1", "1")
			checkMetrics(traced, perLayer)
			for _, name := range []string{"ycsb.ops", "kvstore.ops"} {
				if got := traced.Metrics[name].Value; (got != 0) != (w.name == "ycsb-a") {
					t.Errorf("%s is %v on %s", name, got, w.name)
				}
			}
		})
	}
}

// TestTracedCountsRepeat runs the traced pass of the cheapest workload
// twice: every count and ratio must repeat exactly.
func TestTracedCountsRepeat(t *testing.T) {
	a := contractRun(t, "file-churn", "1", "1")
	b := contractRun(t, "file-churn", "1", "1")
	for _, s := range perLayer {
		if s.exact && a.Metrics[s.Name].Value != b.Metrics[s.Name].Value {
			t.Errorf("%s: %v, then %v", s.Name, a.Metrics[s.Name].Value, b.Metrics[s.Name].Value)
		}
	}
}

func TestSuiteWritesResultAndTrace(t *testing.T) {
	out := filepath.Join(t.TempDir(), "result.json")
	code, stdout, stderr := runBench("-scale", "smoke", "-seconds", "0.01", "-workload", "file-churn", "-out", out)
	if code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, stdout, stderr)
	}
	rf, err := readResult(out)
	if err != nil {
		t.Fatal(err)
	}
	if rf.Validated || rf.Seed != 1 || rf.Scale != "smoke" || rf.Env.GoVersion == "" || rf.Env.GOMAXPROCS < 1 || rf.Env.NumCPU < 1 {
		t.Errorf("result header: %+v", rf)
	}
	w := rf.Workloads[0]
	if w.EndToEnd == nil || w.PerLayer == nil || w.SimDigest == "" {
		t.Errorf("a suite run holds both passes and the digest: %+v", w)
	}
	if m := w.EndToEnd["host_accesses_per_sec"]; m.N < minReps || m.Min > m.Q1 || m.Q1 > m.Median || m.Median > m.Q3 || m.Q3 > m.Max {
		t.Errorf("host_accesses_per_sec distribution: %+v", m)
	}
	for _, r := range compareResults(rf, rf) {
		if r.Verdict != verdictSame {
			t.Errorf("a run against itself: %s/%s is %q", r.Workload, r.Metric, r.Verdict)
		}
	}
	var trace struct {
		Runs []struct {
			Workload string
			Spans    []span
		}
	}
	data, err := os.ReadFile(out + ".trace.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatal(err)
	}
	if len(trace.Runs) != 1 || trace.Runs[0].Workload != "file-churn" {
		t.Fatalf("trace runs: %+v", trace.Runs)
	}
	names := map[string]int{}
	byID := map[int]span{}
	for _, s := range trace.Runs[0].Spans {
		names[s.Name]++
		byID[s.ID] = s
	}
	for _, want := range []string{"run", "setup", "batch", "daemon.kpromoted", "daemon.flusher", "policy.Pressure"} {
		if names[want] == 0 {
			t.Errorf("no %q span in the trace (have %v)", want, names)
		}
	}
	for _, s := range trace.Runs[0].Spans {
		if s.End < s.Start {
			t.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
		if parent, ok := byID[s.Parent]; s.Parent != 0 && (!ok || (parent.Name == "batch" && parent.Batch != s.Batch)) {
			t.Errorf("span %d %s: parent %d missing or from another batch", s.ID, s.Name, s.Parent)
		}
	}
}

func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-seed", "x"},
		{"-seed", "-1"},
		{"-scale", "huge"},
		{"-trace", "0"},
		{"-workload", "ycsb-a", "-trace", "2"},
		{"-compare", "only-one.json"},
		{"stray"},
	} {
		if code, _, stderr := runBench(args...); code != 2 || stderr == "" {
			t.Errorf("%v: exit %d, stderr %q; want 2 and a message", args, code, stderr)
		}
	}
}
