package main

import (
	"math"
	"testing"
)

// dist builds a host-time metric (higher is better, bound 10 %) whose runs
// are the given values.
func dist(values ...float64) metricResult {
	return metricResult{Unit: "1/s", Better: higher, Bound: 0.10, summary: summarize(values)}
}

func exactly(better string, v float64) metricResult {
	return metricResult{Unit: "ms", Better: better, Bound: 0.05, Exact: true, summary: summarize([]float64{v})}
}

func oneWorkload(name string, metrics map[string]metricResult) resultFile {
	return resultFile{Schema: resultSchema, Seed: 1, Scale: "full", Workloads: []workloadResult{{
		Name: name, SimDigest: "00000000000000aa", OpsAttempted: 100, EndToEnd: metrics,
	}}}
}

func verdictOf(t *testing.T, rows []compareRow, workload, metric string) compareRow {
	t.Helper()
	for _, r := range rows {
		if r.Workload == workload && r.Metric == metric {
			return r
		}
	}
	t.Fatalf("no row for %s/%s in %+v", workload, metric, rows)
	return compareRow{}
}

func TestJudge(t *testing.T) {
	nan := dist(100, 101, 102)
	nan.Value = math.NaN()
	flipped := dist(100, 101, 102)
	flipped.Better = lower
	empty := dist()
	cases := []struct {
		name      string
		a, b      metricResult
		sameInput bool
		want      string
	}{
		{"identical", dist(100, 101, 102), dist(100, 101, 102), true, verdictSame},
		{"within the bound", dist(100, 101, 102), dist(95, 96, 97), true, verdictSame},
		{"beyond the bound", dist(100, 101, 102), dist(80, 81, 82), true, verdictWorse},
		{"beyond the bound, lower is better", exactlyLoose(lower, 10), exactlyLoose(lower, 12), true, verdictWorse},
		{"clear gain", dist(100, 101, 102), dist(130, 131, 132), true, verdictBetter},
		{"gain inside the bound is not a gain", dist(100, 101, 102), dist(104, 105, 106), true, verdictSame},
		// The SNIPPETS exemplar's failure: a regression the noise hides must
		// not read as "same".
		{"the same noisy runs against themselves", dist(70, 85, 100, 115, 130), dist(70, 85, 100, 115, 130), true, verdictSame},
		{"equally noisy runs that only share a median", dist(70, 85, 100, 115, 130), dist(72, 84, 100, 116, 128), true, verdictUnresolved},
		{"regression hidden inside the spread", dist(70, 85, 100, 115, 130), dist(62, 77, 92, 107, 122), true, verdictUnresolved},
		{"wide spread but every run worse", dist(70, 85, 100, 115, 130), dist(20, 25, 30, 35, 40), true, verdictWorse},
		{"NaN baseline", nan, dist(100, 101, 102), true, verdictUnresolved},
		{"NaN change", dist(100, 101, 102), nan, true, verdictUnresolved},
		{"no samples", empty, dist(100, 101, 102), true, verdictUnresolved},
		{"direction flipped", dist(100, 101, 102), flipped, true, verdictUnresolved},
		{"zero baseline, both zero", dist(0, 0, 0), dist(0, 0, 0), true, verdictSame},
		{"zero baseline, change is lower and higher is better", dist(0, 0, 0), dist(-1, -1, -1), true, verdictWorse},
		{"zero baseline, change is higher and higher is better", dist(0, 0, 0), dist(5, 5, 5), true, verdictBetter},
		{"exact: equal", exactly(lower, 31879.8), exactly(lower, 31879.8), true, verdictSame},
		{"exact: simulated time drifts up by 1 ns", exactly(lower, 31879.8), exactly(lower, 31879.800001), true, verdictWorse},
		{"exact: simulated time drifts down by 1 ns", exactly(lower, 31879.8), exactly(lower, 31879.799999), true, verdictBetter},
		{"exact: hit ratio drifts down", exactly(higher, 0.571), exactly(higher, 0.570999), true, verdictWorse},
		{"exact metric at another seed falls back to its bound", exactly(lower, 31879.8), exactly(lower, 31900), false, verdictSame},
		{"exact metric at another seed, beyond its bound", exactly(lower, 31879.8), exactly(lower, 35000), false, verdictWorse},
	}
	for _, c := range cases {
		got, note := judge(c.a, c.b, c.sameInput)
		if got != c.want {
			t.Errorf("%s: verdict %q (%s), want %q", c.name, got, note, c.want)
		}
	}
}

// exactlyLoose is a single-valued metric that is not exact (peak RSS).
func exactlyLoose(better string, v float64) metricResult {
	m := exactly(better, v)
	m.Exact = false
	m.Bound = 0.10
	return m
}

func TestCompareResultsStructure(t *testing.T) {
	base := oneWorkload("ycsb-a", map[string]metricResult{
		"host_accesses_per_sec": dist(100, 101, 102),
		"sim_elapsed_ms":        exactly(lower, 10),
	})

	t.Run("self", func(t *testing.T) {
		for _, r := range compareResults(base, base) {
			if r.Verdict != verdictSame {
				t.Errorf("%s/%s: %q comparing a file with itself", r.Workload, r.Metric, r.Verdict)
			}
		}
	})
	t.Run("metric missing from the change", func(t *testing.T) {
		b := oneWorkload("ycsb-a", map[string]metricResult{"host_accesses_per_sec": dist(100, 101, 102)})
		if r := verdictOf(t, compareResults(base, b), "ycsb-a", "sim_elapsed_ms"); r.Verdict != verdictWorse {
			t.Errorf("dropped metric: %q, want worse", r.Verdict)
		}
	})
	t.Run("metric missing from the baseline", func(t *testing.T) {
		a := oneWorkload("ycsb-a", map[string]metricResult{"host_accesses_per_sec": dist(100, 101, 102)})
		if r := verdictOf(t, compareResults(a, base), "ycsb-a", "sim_elapsed_ms"); r.Verdict != verdictUnresolved {
			t.Errorf("new metric: %q, want unresolved", r.Verdict)
		}
	})
	t.Run("workload missing from the change", func(t *testing.T) {
		b := base
		b.Workloads = nil
		if r := verdictOf(t, compareResults(base, b), "ycsb-a", "*"); r.Verdict != verdictWorse {
			t.Errorf("vanished workload: %q, want worse", r.Verdict)
		}
	})
	t.Run("extra workload in the change", func(t *testing.T) {
		b := base
		b.Workloads = append([]workloadResult{}, base.Workloads...)
		b.Workloads = append(b.Workloads, oneWorkload("new", nil).Workloads[0])
		rows := compareResults(base, b)
		if r := verdictOf(t, rows, "new", "*"); r.Verdict != verdictUnresolved {
			t.Errorf("workload without baseline: %q, want unresolved", r.Verdict)
		}
		if r := verdictOf(t, rows, "ycsb-a", "sim_elapsed_ms"); r.Verdict != verdictSame {
			t.Errorf("the shared workload must still compare: %q", r.Verdict)
		}
	})
	t.Run("digest moved", func(t *testing.T) {
		b := oneWorkload("ycsb-a", base.Workloads[0].EndToEnd)
		b.Workloads[0].SimDigest = "00000000000000ab"
		if r := verdictOf(t, compareResults(base, b), "ycsb-a", "sim_digest"); r.Verdict != verdictUnresolved {
			t.Errorf("moved digest: %q, want unresolved", r.Verdict)
		}
	})
	t.Run("digest at another seed", func(t *testing.T) {
		b := oneWorkload("ycsb-a", base.Workloads[0].EndToEnd)
		b.Seed = 2
		if r := verdictOf(t, compareResults(base, b), "ycsb-a", "sim_digest"); r.Verdict != verdictUnresolved {
			t.Errorf("digest across seeds: %q, want unresolved", r.Verdict)
		}
	})
	t.Run("a check starts failing", func(t *testing.T) {
		b := oneWorkload("ycsb-a", base.Workloads[0].EndToEnd)
		b.Workloads[0].OpsFailed = 1
		if r := verdictOf(t, compareResults(base, b), "ycsb-a", "ops_failed"); r.Verdict != verdictWorse {
			t.Errorf("new failure: %q, want worse", r.Verdict)
		}
	})
}
