package bench

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"multiclock/internal/fault"
	"multiclock/internal/policy"
	"multiclock/internal/sim"
	"multiclock/internal/snapshot"
)

// snapshotPolicies are the systems the checkpoint layer must support: all
// of them.
var snapshotPolicies = PolicyNames()

// firstCheckpointable are the seven systems that had codecs before every
// policy did. The round-trip property's first ten draws stay over this list
// so the cases they name do not move.
var firstCheckpointable = []string{
	"static", "multiclock", "nimble", "nomad", "s3fifo", "multiclock-gated", "nimble-gated",
}

// policyStateLive fails the test when the policy-private state a codec
// added with the policy kit carries is still empty at the checkpoint, so an
// empty codec cannot pass resume identity.
func policyStateLive(t *testing.T, s *Session) {
	t.Helper()
	var n int64
	switch p := s.M.Policy.(type) {
	case *policy.AutoTiering:
		n = s.M.Mem.Counters.HintFaults
	case *policy.Thermostat:
		n = min(s.M.Mem.Counters.HintFaults, p.Demotions)
	case *policy.MemoryMode:
		n = p.Misses
	case *policy.AMP:
		n = p.Promotions
	default:
		return
	}
	if n == 0 {
		t.Errorf("%s: policy state is still trivial at the checkpoint (op %d)", s.M.Policy.Name(), s.opCount())
	}
}

func testSoakConfig(policy string, chaos bool) RunConfig {
	cfg := RunConfig{
		Policy:    policy,
		Workloads: []string{"A"},
		Records:   2_000,
		Ops:       6_000,
		DRAMPages: 128,
		PMPages:   1_024,
		Interval:  1 * sim.Millisecond,
		Seed:      1,
	}
	if policy == "thermostat" {
		// Thermostat moves whole 512-page regions, and only those resident
		// in the fastest tier: without a fast tier of two regions under a
		// footprint of four it never classifies anything cold.
		cfg.Records, cfg.DRAMPages, cfg.PMPages = 4_000, 1_024, 8_192
	}
	if chaos {
		cfg.Chaos = fault.UniformRate(42, 0.02)
	}
	return cfg
}

// runStraight completes a fresh session and returns its report and final
// fingerprint.
func runStraight(t *testing.T, cfg RunConfig) (string, snapshot.AuditRecord, *Session) {
	t.Helper()
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	report, err := s.Run(SoakHooks{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	rec, err := s.Fingerprint()
	if err != nil {
		t.Fatalf("Fingerprint: %v", err)
	}
	return report, rec, s
}

// resumeFromMidpoint runs a second session to the given op boundary (where
// the atCheckpoint checks see it), round-trips a snapshot through its byte
// encoding, restores, captures the restored session again — every section
// must equal the original's byte for byte, which pins what the reading side
// rebuilds — finishes, and returns the resumed report and final fingerprint.
func resumeFromMidpoint(t *testing.T, cfg RunConfig, mid int64, atCheckpoint ...func(*testing.T, *Session)) (string, snapshot.AuditRecord, *Session) {
	t.Helper()
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	s.RunUntil(mid)
	for _, check := range atCheckpoint {
		check(t, s)
	}
	f, err := s.Capture()
	if err != nil {
		t.Fatalf("Capture at op %d: %v", mid, err)
	}
	f2, err := snapshot.Decode(f.Encode())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	r, err := RestoreSession(f2)
	if err != nil {
		t.Fatalf("RestoreSession: %v", err)
	}
	again, err := r.Capture()
	if err != nil {
		t.Fatalf("Capture of the restored session: %v", err)
	}
	for _, name := range snapshot.SectionOrder {
		want, _ := f.Section(name)
		if got, _ := again.Section(name); !bytes.Equal(got, want) {
			t.Errorf("section %q of the restored session recaptures to %d bytes that differ from the original %d", name, len(got), len(want))
		}
	}
	report, err := r.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	rec, err := r.Fingerprint()
	if err != nil {
		t.Fatalf("Fingerprint: %v", err)
	}
	return report, rec, r
}

func diffFingerprints(t *testing.T, a, b snapshot.AuditRecord) {
	t.Helper()
	if d := snapshot.Diverge([]snapshot.AuditRecord{a}, []snapshot.AuditRecord{b}); d != nil {
		t.Errorf("final state fingerprints differ: %v", d)
	}
}

// TestSoakResumeIdentity is the acceptance matrix: every snapshot-supported
// policy, with and without chaos, must resume from a mid-run snapshot to a
// byte-identical report and an identical per-subsystem state fingerprint.
func TestSoakResumeIdentity(t *testing.T) {
	for _, policy := range snapshotPolicies {
		for _, chaos := range []bool{false, true} {
			name := policy
			if chaos {
				name += "/chaos"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				cfg := testSoakConfig(policy, chaos)
				straight, rec1, _ := runStraight(t, cfg)
				resumed, rec2, _ := resumeFromMidpoint(t, cfg, cfg.Ops/2, policyStateLive)
				if straight != resumed {
					t.Errorf("resumed report differs from straight run:\n--- straight\n%s\n--- resumed\n%s", straight, resumed)
				}
				diffFingerprints(t, rec1, rec2)
			})
		}
	}
}

// TestSoakResumeSequenceWithMetrics covers the multi-workload path (resuming
// with completed results in the config section) and the telemetry registry.
func TestSoakResumeSequenceWithMetrics(t *testing.T) {
	cfg := testSoakConfig("multiclock", true)
	cfg.Workloads = []string{"A", "B", "D"}
	cfg.Ops = 3_000
	cfg.Metrics = true
	cfg.TraceEvents = 32

	straight, rec1, s1 := runStraight(t, cfg)
	// Midpoint inside the second workload, so one completed result travels.
	resumed, rec2, s2 := resumeFromMidpoint(t, cfg, cfg.Ops+cfg.Ops/2)
	if straight != resumed {
		t.Errorf("resumed report differs from straight run:\n--- straight\n%s\n--- resumed\n%s", straight, resumed)
	}
	diffFingerprints(t, rec1, rec2)

	m1, m2 := s1.MetricsRun("x"), s2.MetricsRun("x")
	if m1 == nil || m2 == nil {
		t.Fatalf("missing metrics export (%v, %v)", m1 == nil, m2 == nil)
	}
	if !reflect.DeepEqual(m1, m2) {
		t.Errorf("metrics exports differ after resume:\n%+v\n%+v", m1, m2)
	}
}

// TestSoakRoundTripProperty is the randomized round-trip property: random
// (workload, policy, chaos seed, snapshot point) combinations must restore
// and finish identically, section hash by section hash.
func TestSoakRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Machine seeds come from their own stream, drawn here rather than
	// inside the parallel subtests: a rand.Rand is not safe for concurrent
	// use, and the main stream's draw order fixes the subtest names.
	seeds := rand.New(rand.NewSource(8))
	workloads := []string{"A", "B", "C", "D", "E", "F", "W"}
	draw := func(policy string) {
		w := workloads[rng.Intn(len(workloads))]
		chaosSeed := rng.Uint64()
		chaosOn := rng.Intn(2) == 1
		mid := 1 + rng.Int63n(5_999)
		seed := seeds.Uint64()%1000 + 1
		name := policy + "/" + w
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := testSoakConfig(policy, false)
			cfg.Workloads = []string{w}
			cfg.Seed = seed
			if chaosOn {
				cfg.Chaos = fault.UniformRate(chaosSeed, 0.03)
			}
			straight, rec1, _ := runStraight(t, cfg)
			resumed, rec2, _ := resumeFromMidpoint(t, cfg, mid)
			if straight != resumed {
				t.Errorf("resumed report differs (policy=%s workload=%s chaos=%v mid=%d):\n--- straight\n%s\n--- resumed\n%s",
					policy, w, chaosOn, mid, straight, resumed)
			}
			diffFingerprints(t, rec1, rec2)
		})
	}
	for i := 0; i < 10; i++ {
		draw(firstCheckpointable[rng.Intn(len(firstCheckpointable))])
	}
	for _, policy := range snapshotPolicies {
		if !slices.Contains(firstCheckpointable, policy) {
			draw(policy)
		}
	}
}

// TestSoakHooksArePassive asserts checkpointing/auditing/invariant sweeps do
// not perturb the simulation: the report with all hooks on equals the report
// with none.
func TestSoakHooksArePassive(t *testing.T) {
	cfg := testSoakConfig("multiclock", true)
	plain, _, _ := runStraight(t, cfg)

	s, err := NewSession(cfg)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	var audit bytes.Buffer
	hooked, err := s.Run(SoakHooks{
		SnapshotPath:    t.TempDir() + "/soak.mcsnap",
		SnapshotEvery:   1_500,
		Audit:           snapshot.NewAuditWriter(&audit),
		InvariantsEvery: 500,
	})
	if err != nil {
		t.Fatalf("Run with hooks: %v", err)
	}
	if plain != hooked {
		t.Errorf("hooks perturbed the run:\n--- plain\n%s\n--- hooked\n%s", plain, hooked)
	}
	recs, err := snapshot.ReadAudit(&audit)
	if err != nil {
		t.Fatalf("ReadAudit: %v", err)
	}
	if len(recs) != 4 {
		t.Errorf("audit trail has %d records, want 4", len(recs))
	}
}

// TestSoakAuditTrailMatchesAcrossRuns: two independent identical runs produce
// byte-identical audit trails; Diverge reports nil.
func TestSoakAuditTrailMatchesAcrossRuns(t *testing.T) {
	cfg := testSoakConfig("s3fifo", true)
	trail := func() []snapshot.AuditRecord {
		s, err := NewSession(cfg)
		if err != nil {
			t.Fatalf("NewSession: %v", err)
		}
		var buf bytes.Buffer
		if _, err := s.Run(SoakHooks{SnapshotEvery: 1_000, Audit: snapshot.NewAuditWriter(&buf)}); err != nil {
			t.Fatalf("Run: %v", err)
		}
		recs, err := snapshot.ReadAudit(&buf)
		if err != nil {
			t.Fatalf("ReadAudit: %v", err)
		}
		return recs
	}
	a, b := trail(), trail()
	if d := snapshot.Diverge(a, b); d != nil {
		t.Errorf("identical runs diverged: %v", d)
	}
	if len(a) == 0 {
		t.Error("empty audit trail")
	}
}

// TestSoakAuditReconcileAfterKill: a run killed at any instant around a
// checkpoint boundary leaves a recoverable trail. Whether the dying process
// appended the boundary's record before the snapshot landed, after, or the
// restored snapshot is older than the trail, ResumeSession reconciles the
// audit file on restore and the finished trail is byte-identical to a
// straight run's (and the report matches).
func TestSoakAuditReconcileAfterKill(t *testing.T) {
	cfg := testSoakConfig("multiclock", true)
	const every = 1_500 // boundaries at 1500, 3000, 4500, 6000
	dir := t.TempDir()
	// drive runs the session the way mcsim does under -audit.
	drive := func(restore, audit string) string {
		t.Helper()
		var s *Session
		var err error
		if restore != "" {
			s, err = ResumeSession(restore, false, audit, every)
		} else {
			s, err = NewSession(cfg)
		}
		if err != nil {
			t.Fatalf("restore %q: %v", restore, err)
		}
		report, err := s.Drive(SoakHooks{SnapshotEvery: every}, audit)
		if err != nil {
			t.Fatalf("restore %q: Drive: %v", restore, err)
		}
		return report
	}

	ref := filepath.Join(dir, "straight.jsonl")
	wantReport := drive("", ref)
	want, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(want, []byte("\n"))
	if len(lines) != 5 || len(lines[4]) != 0 { // 4 records + empty tail
		t.Fatalf("straight trail has %d lines, want 4", len(lines)-1)
	}

	// The "killed" run: snapshot on disk is at boundary 2 (op 3000).
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	s.RunUntil(2 * every)
	snap := filepath.Join(dir, "kill.mcsnap")
	if err := s.Snapshot(snap); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}

	// keep = trail records surviving the kill: 1 (boundary record lost),
	// 2 (in sync), 3 (trail ahead of an older snapshot).
	for _, keep := range []int{1, 2, 3} {
		audit := filepath.Join(dir, fmt.Sprintf("trail-%d.jsonl", keep))
		if err := os.WriteFile(audit, bytes.Join(lines[:keep], nil), 0o644); err != nil {
			t.Fatal(err)
		}
		if report := drive(snap, audit); report != wantReport {
			t.Errorf("keep=%d: resumed report differs from straight run", keep)
		}
		got, err := os.ReadFile(audit)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("keep=%d: reconciled trail differs:\n--- want\n%s--- got\n%s", keep, want, got)
		}
	}
}

// TestSoakRestoreConfigMismatch: restoring a snapshot onto a target built
// with a different configuration is a typed mismatch, not a partial restore.
// Nimble's daemons differ from MULTI-CLOCK's, so the clock section refuses
// first; the gated variant runs the same daemons, so only the policy
// section's name check can refuse it.
func TestSoakRestoreConfigMismatch(t *testing.T) {
	for _, c := range []struct{ from, onto, reason string }{
		{"multiclock", "nimble", `snapshot daemon "kpromoted", target daemon "nimble-scan"`},
		{"multiclock", "multiclock-gated", `snapshot policy "multiclock", target "multiclock+bandwidth-gate(5%/1.000s)"`},
	} {
		s, err := NewSession(testSoakConfig(c.from, false))
		if err != nil {
			t.Fatalf("NewSession: %v", err)
		}
		s.RunUntil(1_000)
		f, err := s.Capture()
		if err != nil {
			t.Fatalf("Capture: %v", err)
		}

		other, err := newPristine(testSoakConfig(c.onto, false))
		if err != nil {
			t.Fatalf("newPristine: %v", err)
		}
		var cm *snapshot.ConfigMismatchError
		if err := snapshot.Restore(other.target(), f); !errors.As(err, &cm) || cm.Reason != c.reason {
			t.Errorf("Restore of %s onto %s = %v, want ConfigMismatchError %q", c.from, c.onto, err, c.reason)
		}
	}
}

// TestSoakCaptureNotQuiescent: a pending one-shot event blocks capture with
// the typed error.
func TestSoakCaptureNotQuiescent(t *testing.T) {
	s, err := NewSession(testSoakConfig("multiclock", false))
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	s.M.Clock.Schedule(1*sim.Second, func() {})
	var nq *snapshot.NotQuiescentError
	if _, err := s.Capture(); !errors.As(err, &nq) {
		t.Fatalf("Capture = %v, want NotQuiescentError", err)
	}
}

// TestSoakCorruptedSnapshotRejected: every byte-level corruption of a real
// snapshot is rejected with a typed error and never panics.
func TestSoakCorruptedSnapshotRejected(t *testing.T) {
	s, err := NewSession(testSoakConfig("nomad", true))
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	s.RunUntil(2_000)
	f, err := s.Capture()
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}
	data := f.Encode()

	typed := func(err error) bool {
		var ce *snapshot.CorruptError
		var ve *snapshot.VersionError
		return errors.Is(err, snapshot.ErrBadMagic) || errors.Is(err, snapshot.ErrTruncatedFile) ||
			errors.As(err, &ce) || errors.As(err, &ve)
	}

	// Truncations at every length (sampled for speed).
	for cut := 0; cut < len(data); cut += 97 {
		if _, err := snapshot.Decode(data[:cut]); err == nil || !typed(err) {
			t.Fatalf("truncated at %d: err=%v, want typed rejection", cut, err)
		}
	}
	// Single-byte flips (sampled).
	for i := 0; i < len(data); i += 131 {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		f2, err := snapshot.Decode(mut)
		if err == nil {
			// The flip must then fail semantic validation on restore.
			if _, err := RestoreSession(f2); err == nil {
				t.Fatalf("flip at %d restored silently", i)
			}
			continue
		}
		if !typed(err) {
			t.Fatalf("flip at %d: err=%v, want typed rejection", i, err)
		}
	}
	// Not a snapshot at all.
	if _, err := snapshot.Decode([]byte("definitely not a snapshot file")); !errors.Is(err, snapshot.ErrBadMagic) {
		t.Fatalf("garbage: err=%v, want ErrBadMagic", err)
	}
	if _, err := snapshot.Decode([]byte{1, 2}); !errors.Is(err, snapshot.ErrTruncatedFile) {
		t.Fatalf("tiny: err=%v, want ErrTruncatedFile", err)
	}
}

// TestSoakVersionSkewRejected: a future container version is refused with
// VersionError.
func TestSoakVersionSkewRejected(t *testing.T) {
	f := snapshot.NewFile()
	f.Version = snapshot.Version + 1
	f.AddSection(snapshot.SecConfig, []byte("x"))
	var ve *snapshot.VersionError
	if _, err := snapshot.Decode(f.Encode()); !errors.As(err, &ve) {
		t.Fatalf("Decode future version = %v, want VersionError", err)
	}
}

// TestSoakInvariantCadence: the sweep actually runs (a session with a broken
// cadence value of 1 still completes and reports clean).
func TestSoakInvariantSweepRuns(t *testing.T) {
	cfg := testSoakConfig("multiclock", true)
	cfg.Ops = 1_000
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	if _, err := s.Run(SoakHooks{InvariantsEvery: 1}); err != nil {
		t.Fatalf("Run with per-op invariant sweep: %v", err)
	}
}

// TestDiverge exercises the bisecting auditor on synthetic trails.
func TestDiverge(t *testing.T) {
	mk := func(op int64, h string) snapshot.AuditRecord {
		return snapshot.AuditRecord{Op: op, VTime: op * 10, Hashes: map[string]string{"mem": h, "clock": "c"}}
	}
	a := []snapshot.AuditRecord{mk(1, "x"), mk(2, "y"), mk(3, "z")}
	b := []snapshot.AuditRecord{mk(1, "x"), mk(2, "y"), mk(3, "z")}
	if d := snapshot.Diverge(a, b); d != nil {
		t.Errorf("identical trails: %v", d)
	}
	b2 := []snapshot.AuditRecord{mk(1, "x"), mk(2, "Y"), mk(3, "z")}
	d := snapshot.Diverge(a, b2)
	if d == nil || d.Index != 1 || len(d.Sections) != 1 || d.Sections[0] != "mem" {
		t.Errorf("Diverge = %+v, want index 1 section mem", d)
	}
	if !strings.Contains(d.String(), "mem") {
		t.Errorf("String() = %q", d.String())
	}
	d = snapshot.Diverge(a, a[:2])
	if d == nil || d.Index != 2 || len(d.Sections) != 0 {
		t.Errorf("length divergence = %+v, want index 2", d)
	}
}
