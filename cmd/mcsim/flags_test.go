package main

import (
	"flag"
	"io"
	"testing"
)

// parseFlags registers the run flags on a fresh FlagSet and parses args.
func parseFlags(t *testing.T, args ...string) *RunFlags {
	t.Helper()
	var f RunFlags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return &f
}

const goodSLO = "p99(x_ns) < 1us over 1ms"

// TestValidateExportFlags: instrumentation flags ride the metrics export, so
// any of them without -metrics is refused with the one canonical message.
func TestValidateExportFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"nothing", nil, ""},
		{"metrics only", []string{"-metrics", "out.json"}, ""},
		{"series with metrics", []string{"-metrics", "out.json", "-series", "10ms"}, ""},
		{"lifecycle with metrics", []string{"-metrics", "out.json", "-lifecycle", "1"}, ""},
		{"slo with metrics", []string{"-metrics", "out.json", "-slo", goodSLO}, ""},
		{"trace-out with metrics", []string{"-metrics", "out.json", "-trace-out", "t.json"}, ""},
		{"series without metrics", []string{"-series", "10ms"}, msgNeedMetrics},
		{"lifecycle without metrics", []string{"-lifecycle", "1"}, msgNeedMetrics},
		{"both without metrics", []string{"-series", "10ms", "-lifecycle", "1"}, msgNeedMetrics},
		{"slo without metrics", []string{"-slo", goodSLO}, msgNeedMetrics},
		{"trace-out without metrics", []string{"-trace-out", "t.json"}, msgNeedMetrics},
		// The spec itself is only parsed once -metrics is present.
		{"bad slo without metrics", []string{"-slo", "p99(x < 1us"}, msgNeedMetrics},
		{"bad slo", []string{"-metrics", "m.json", "-slo", "p99(x < 1us"},
			"slo: cannot parse objective \"p99(x < 1us\" (want \"pNN(metric) < 400ns over 10ms[, 99.9%]\")\n"},
		{"bad chaos", []string{"-chaos", "nope"}, "mcsim: fault: spec \"nope\" is not seed,rate\n"},
		{"bad tiers", []string{"-tiers", "hbm:64"}, "-tiers: unknown tier \"hbm\" (have dram, cxl, pm, ssd)\n"},
		// One order: -chaos, -tiers, then the export rule.
		{"chaos before tiers", []string{"-chaos", "nope", "-tiers", "hbm:64"}, "mcsim: fault: spec \"nope\" is not seed,rate\n"},
		{"tiers before export", []string{"-tiers", "hbm:64", "-series", "10ms"}, "-tiers: unknown tier \"hbm\" (have dram, cxl, pm, ssd)\n"},
	}
	for _, c := range cases {
		f := parseFlags(t, c.args...)
		checkErr(t, c.name, f.Validate(), c.want)
		if c.want == "" && f.SLO != "" && f.SLOSpec == nil {
			t.Errorf("%s: Validate left the -slo spec unparsed", c.name)
		}
	}
}

// checkErr compares the stderr line err becomes ("" for nil) with want.
func checkErr(t *testing.T, name string, err error, want string) {
	t.Helper()
	got := ""
	if err != nil {
		got = err.Error() + "\n"
	}
	if got != want {
		t.Errorf("%s: Validate() = %q, want %q", name, got, want)
	}
}

// TestSnapshotFlagsValidate: the checkpoint cadence rules, and the refusal of
// every unserializable sink in a checkpointed run (-snapshot, -restore,
// -audit). A requested sink is refused, never silently dropped; a run that
// only sweeps invariants takes every sink.
func TestSnapshotFlagsValidate(t *testing.T) {
	snap := []string{"-snapshot", "s.mcsnap", "-snapshot-every", "5000"}
	with := func(base []string, extra ...string) []string {
		return append(append([]string{"-metrics", "m.json"}, base...), extra...)
	}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"snapshot with cadence", snap, ""},
		{"audit with cadence", []string{"-audit", "a.jsonl", "-snapshot-every", "5000"}, ""},
		{"restore alone", []string{"-restore", "s.mcsnap"}, ""},
		{"invariants alone", []string{"-invariants-every", "1000"}, ""},
		{"metrics ring in a checkpointed run", with(snap, "-trace-events", "64"), ""},
		{"negative cadence", []string{"-snapshot-every", "-1"}, "-snapshot-every must be non-negative\n"},
		{"negative invariants", []string{"-invariants-every", "-1"}, "-invariants-every must be non-negative\n"},
		{"cadence without sink", []string{"-snapshot-every", "5000"}, "-snapshot-every needs -snapshot or -audit to do anything\n"},
		{"snapshot without cadence", []string{"-snapshot", "s.mcsnap"}, msgCadence},
		{"audit without cadence", []string{"-audit", "a.jsonl"}, msgCadence},
		// The refusal names the flags that make the run checkpointed.
		{"snapshot with series", with(snap, "-series", "10ms"), msgCombined("-snapshot")},
		{"restore with lifecycle", with([]string{"-restore", "s.mcsnap"}, "-lifecycle", "1"), msgCombined("-restore")},
		{"restore with slo", with([]string{"-restore", "s.mcsnap"}, "-slo", goodSLO), msgCombined("-restore")},
		{"snapshot with trace-out", with(snap, "-trace-out", "t.json"), msgCombined("-snapshot")},
		{"audit and invariants with series", with([]string{"-audit", "a.jsonl", "-snapshot-every", "5000", "-invariants-every", "1000"}, "-series", "10ms"),
			msgCombined("-audit")},
		{"snapshot and restore with series", with(snap, "-restore", "s.mcsnap", "-series", "10ms"), msgCombined("-snapshot/-restore")},
		// Invariant sweeps hold no state a snapshot would need.
		{"invariants with series", with([]string{"-invariants-every", "1000"}, "-series", "10ms"), ""},
		{"invariants with lifecycle", with([]string{"-invariants-every", "1000"}, "-lifecycle", "1"), ""},
		{"invariants with slo", with([]string{"-invariants-every", "1000"}, "-slo", goodSLO), ""},
		{"invariants with trace-out", with([]string{"-invariants-every", "1000"}, "-trace-out", "t.json"), ""},
		{"sinks in a straight run", with(nil, "-series", "10ms", "-lifecycle", "1"), ""},
	}
	for _, c := range cases {
		checkErr(t, c.name, parseFlags(t, c.args...).Validate(), c.want)
	}
}

// TestSteppedBy: the checkpoint flags name a checkpointed run; the invariant
// sweep steps a run without checkpointing it.
func TestSteppedBy(t *testing.T) {
	cases := []struct {
		f                  SnapshotFlags
		checkpointed, step string
	}{
		{SnapshotFlags{}, "", ""},
		{SnapshotFlags{InvariantsEvery: 10}, "", "-invariants-every"},
		{SnapshotFlags{Snapshot: "s", SnapshotEvery: 5}, "-snapshot", "-snapshot"},
		{SnapshotFlags{Restore: "s", Audit: "a", SnapshotEvery: 5, InvariantsEvery: 10}, "-restore/-audit", "-restore/-audit/-invariants-every"},
	}
	for _, c := range cases {
		if got, step := c.f.CheckpointedBy(), c.f.SteppedBy(); got != c.checkpointed || step != c.step {
			t.Errorf("%+v: CheckpointedBy()=%q SteppedBy()=%q, want %q %q", c.f, got, step, c.checkpointed, c.step)
		}
	}
}

// TestRunFlagsDerived pins the two values every mode derives from the run
// flags instead of re-deriving them by hand.
func TestRunFlagsDerived(t *testing.T) {
	cases := []struct {
		args          []string
		ring, workers int
	}{
		{nil, 0, 1},
		{[]string{"-trace-events", "128", "-parallel", "4"}, 128, 4},
		{[]string{"-trace-out", "t.json", "-parallel", "0"}, DefaultTraceRing, -1},
		{[]string{"-trace-out", "t.json", "-trace-events", "32", "-parallel", "-3"}, 32, -1},
	}
	for _, c := range cases {
		f := parseFlags(t, c.args...)
		if f.Ring() != c.ring || f.Workers() != c.workers {
			t.Errorf("%v: Ring()=%d Workers()=%d, want %d %d", c.args, f.Ring(), f.Workers(), c.ring, c.workers)
		}
	}
}
