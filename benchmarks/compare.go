package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"sort"
)

// Verdicts of -compare, after the choosing-metrics guide: a metric whose
// run-to-run spread is wider than its bound while the two sides' runs
// interleave is unresolved, never "same".
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// compareRow is one workload × end-to-end metric.
type compareRow struct {
	Workload, Metric string
	A, B             *metricResult
	Verdict, Note    string
}

func readResult(path string) (resultFile, error) {
	var rf resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(data, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	if rf.Schema != resultSchema {
		return rf, fmt.Errorf("%s: schema %q, want %q", path, rf.Schema, resultSchema)
	}
	return rf, nil
}

// compareResults judges B (the change) against A (the baseline).
func compareResults(a, b resultFile) []compareRow {
	// Simulated metrics repeat exactly only for the same input.
	sameInput := a.Seed == b.Seed && a.Scale == b.Scale
	byName := func(rf resultFile) map[string]*workloadResult {
		m := map[string]*workloadResult{}
		for i := range rf.Workloads {
			m[rf.Workloads[i].Name] = &rf.Workloads[i]
		}
		return m
	}
	am, bm := byName(a), byName(b)
	var rows []compareRow
	for _, wa := range a.Workloads {
		wb, ok := bm[wa.Name]
		if !ok {
			rows = append(rows, compareRow{Workload: wa.Name, Metric: "*", Verdict: verdictWorse, Note: "workload missing from the second file: the suite shrank"})
			continue
		}
		for _, name := range metricNames(wa.EndToEnd, wb.EndToEnd) {
			row := compareRow{Workload: wa.Name, Metric: name}
			ma, okA := wa.EndToEnd[name]
			mb, okB := wb.EndToEnd[name]
			switch {
			case !okA:
				row.B = &mb
				row.Verdict, row.Note = verdictUnresolved, "no baseline value"
			case !okB:
				row.A = &ma
				row.Verdict, row.Note = verdictWorse, "metric missing from the second file"
			default:
				row.A, row.B = &ma, &mb
				row.Verdict, row.Note = judge(ma, mb, sameInput)
			}
			rows = append(rows, row)
		}
		rows = append(rows, compareChecks(wa, wb, sameInput)...)
	}
	for _, wb := range b.Workloads {
		if _, ok := am[wb.Name]; !ok {
			rows = append(rows, compareRow{Workload: wb.Name, Metric: "*", Verdict: verdictUnresolved, Note: "workload has no baseline in the first file"})
		}
	}
	return rows
}

// compareChecks adds the two rows that are not distributions: failed
// checks and the simulation digest.
func compareChecks(wa workloadResult, wb *workloadResult, sameInput bool) []compareRow {
	failed := compareRow{Workload: wa.Name, Metric: "ops_failed", Verdict: verdictSame,
		Note: fmt.Sprintf("%d of %d, then %d of %d", wa.OpsFailed, wa.OpsAttempted, wb.OpsFailed, wb.OpsAttempted)}
	switch {
	case wb.OpsFailed > wa.OpsFailed:
		failed.Verdict = verdictWorse
	case wb.OpsFailed < wa.OpsFailed:
		failed.Verdict = verdictBetter
	}
	digest := compareRow{Workload: wa.Name, Metric: "sim_digest", Verdict: verdictSame, Note: wa.SimDigest}
	switch {
	case !sameInput:
		digest.Verdict, digest.Note = verdictUnresolved, "different seed or scale: digests are not comparable"
	case wa.SimDigest != wb.SimDigest:
		digest.Verdict, digest.Note = verdictUnresolved, fmt.Sprintf("simulation moved: %s, then %s", wa.SimDigest, wb.SimDigest)
	}
	return []compareRow{failed, digest}
}

// metricNames lists the union of both sides' metrics: the known ones in
// table order, then any others by name.
func metricNames(a, b map[string]metricResult) []string {
	seen := map[string]bool{}
	var names []string
	for _, spec := range endToEndSpecs {
		_, inA := a[spec.Name]
		_, inB := b[spec.Name]
		if inA || inB {
			names = append(names, spec.Name)
			seen[spec.Name] = true
		}
	}
	var rest []string
	for _, m := range []map[string]metricResult{a, b} {
		for name := range m {
			if !seen[name] {
				seen[name] = true
				rest = append(rest, name)
			}
		}
	}
	sort.Strings(rest)
	return append(names, rest...)
}

// judge compares one metric by its reported values. worsening is the share
// of A's value by which B's is worse (negative when better); the spread and
// whether the runs interleave come from the two distributions.
func judge(a, b metricResult, sameInput bool) (verdict, note string) {
	if a.Better != b.Better || (a.Better != higher && a.Better != lower) {
		return verdictUnresolved, fmt.Sprintf("direction is %q, then %q: the metric was redefined", a.Better, b.Better)
	}
	if a.N == 0 || b.N == 0 {
		return verdictUnresolved, "a side has no samples"
	}
	for _, v := range []float64{a.Value, b.Value, a.Q1, a.Q3, b.Q1, b.Q3, a.Min, a.Max, b.Min, b.Max} {
		if !finite(v) {
			return verdictUnresolved, "a side is not a finite number"
		}
	}
	if reflect.DeepEqual(a.summary, b.summary) {
		// The very same runs (a file against itself): nothing to resolve,
		// however wide their spread.
		return verdictSame, "identical samples"
	}
	diff := b.Value - a.Value // positive = B larger
	if a.Better == higher {
		diff = -diff // positive = B worse
	}
	if (a.Exact && b.Exact && sameInput) || a.Value == 0 {
		// Exact metrics, and any metric with a zero baseline (no share of
		// zero exists), compare by value alone.
		why := "exact"
		if a.Value == 0 {
			why = "zero baseline"
		}
		switch {
		case diff > 0:
			return verdictWorse, why
		case diff < 0:
			return verdictBetter, why
		}
		return verdictSame, why
	}
	base := math.Abs(a.Value)
	worsening := diff / base
	spread := math.Max(a.Q3-a.Q1, b.Q3-b.Q1) / base
	interleave := a.Min <= b.Max && b.Min <= a.Max
	note = fmt.Sprintf("%+.2f%% (bound %.0f%%, spread %.2f%%)", 100*(b.Value-a.Value)/base, 100*a.Bound, 100*spread)
	switch {
	case spread > a.Bound && interleave:
		return verdictUnresolved, note + ": spread wider than the bound and the runs interleave"
	case worsening > a.Bound:
		return verdictWorse, note
	case -worsening > math.Max(a.Bound, (a.Q3-a.Q1)/base) && !interleave:
		return verdictBetter, note
	}
	return verdictSame, note
}

func printCompare(out io.Writer, rows []compareRow) (worse int) {
	const format = "%-13s %-24s %-11s %14s %14s %14s %14s %14s %14s  %s\n"
	fmt.Fprintf(out, format, "workload", "metric", "verdict", "A value", "A q1", "A q3", "B value", "B q1", "B q3", "note")
	cells := func(m *metricResult) (value, q1, q3 string) {
		if m == nil {
			return "-", "-", "-"
		}
		return fmt.Sprintf("%.6g", m.Value), fmt.Sprintf("%.6g", m.Q1), fmt.Sprintf("%.6g", m.Q3)
	}
	for _, r := range rows {
		if r.Verdict == verdictWorse {
			worse++
		}
		am, aq1, aq3 := cells(r.A)
		bm, bq1, bq3 := cells(r.B)
		fmt.Fprintf(out, format, r.Workload, r.Metric, r.Verdict, am, aq1, aq3, bm, bq1, bq3, r.Note)
	}
	return worse
}
