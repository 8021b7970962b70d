package bench

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"multiclock/internal/kvstore"
	"multiclock/internal/metrics"
	"multiclock/internal/snapshot"
	"multiclock/internal/ycsb"
)

// fourTierSpec is the full hierarchy: DRAM over CXL-attached DRAM over PM,
// with the durable swap tier last.
const fourTierSpec = "dram:128,cxl:256,pm:1024,ssd:*"

// allPolicyNames is every system NewPolicy accepts.
var allPolicyNames = PolicyNames()

// runTiered drives one policy over YCSB A on an instrumented machine built
// from the tier spec and returns the report plus the metrics export.
func runTiered(t *testing.T, policy, tiers string) (string, []byte) {
	t.Helper()
	pool := metrics.NewPool(0)
	sc := scale{
		RunConfig: RunConfig{Records: 2_000, Ops: 20_000, Tiers: tiers, Interval: 5 * 1e6, Seed: 1}, // 5ms
		Pool:      pool,
		Prefix:    "tiered/",
	}
	p, err := NewPolicy(policy, sc.Interval)
	if err != nil {
		t.Fatalf("NewPolicy(%s): %v", policy, err)
	}
	m := sc.machineWith(p)
	instrument(sc.Pool, sc.Sinks, m, sc.Prefix+policy)
	storeCfg := kvstore.DefaultConfig(int(sc.Records))
	storeCfg.ItemTouches = 8
	store := kvstore.New(m, storeCfg)
	clientCfg := ycsb.DefaultClientConfig(sc.Records)
	clientCfg.Seed = 0x9c5b
	client := ycsb.NewClient(m, store, clientCfg)
	client.Load()
	res := client.Run(ycsb.WorkloadA, sc.Ops)
	var b strings.Builder
	fmt.Fprintf(&b, "tp=%.3f p50=%v p99=%v\n%s\nelapsed=%v ops=%d\n",
		res.Throughput, res.P50, res.P99, m.Mem.Counters.String(), m.Elapsed(), m.Ops)
	stopDaemons(p)
	export, err := pool.ExportJSON()
	if err != nil {
		t.Fatalf("ExportJSON: %v", err)
	}
	return b.String(), export
}

// TestFourTierAllPoliciesDeterministic is the acceptance run: every policy
// completes a 4-tier workload, twice, with byte-identical reports and
// metrics exports, and the export carries per-tier access-latency
// histograms for the new tiers.
func TestFourTierAllPoliciesDeterministic(t *testing.T) {
	for _, policy := range allPolicyNames {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			t.Parallel()
			r1, e1 := runTiered(t, policy, fourTierSpec)
			r2, e2 := runTiered(t, policy, fourTierSpec)
			if r1 != r2 {
				t.Errorf("4-tier run is not deterministic:\n--- first\n%s\n--- second\n%s", r1, r2)
			}
			if !bytes.Equal(e1, e2) {
				t.Errorf("4-tier metrics export is not deterministic")
			}
			for _, name := range []string{
				"access_latency_dram_read_ns", "access_latency_cxl_read_ns",
				"access_latency_pm_read_ns", "access_latency_cxl_write_ns",
			} {
				if !bytes.Contains(e1, []byte(name)) {
					t.Errorf("metrics export lacks per-tier histogram %q", name)
				}
			}
		})
	}
}

// TestThreeTierSoakResumeIdentity extends the resume-identity matrix to an
// explicit 3-tier hierarchy: a session restored mid-run must finish with a
// byte-identical report and state fingerprint.
func TestThreeTierSoakResumeIdentity(t *testing.T) {
	for _, policy := range []string{
		"multiclock", "nomad", "s3fifo",
		"at-cpm", "at-opm", "memory-mode", "thermostat", "amp-lru", "amp-lfu", "amp-random",
	} {
		t.Run(policy, func(t *testing.T) {
			t.Parallel()
			cfg := testSoakConfig(policy, false)
			cfg.Tiers = fmt.Sprintf("dram:%d,cxl:%d,pm:%d", cfg.DRAMPages, 2*cfg.DRAMPages, cfg.PMPages)
			straight, rec1, _ := runStraight(t, cfg)
			resumed, rec2, _ := resumeFromMidpoint(t, cfg, cfg.Ops/2, policyStateLive)
			if straight != resumed {
				t.Errorf("resumed 3-tier report differs from straight run:\n--- straight\n%s\n--- resumed\n%s", straight, resumed)
			}
			diffFingerprints(t, rec1, rec2)
		})
	}
}

// TestSnapshotCrossTopologyRejected: restoring a 3-tier snapshot onto a
// 2-tier target fails with a ConfigMismatchError naming the mem section and
// the mismatch, never a partial restore.
func TestSnapshotCrossTopologyRejected(t *testing.T) {
	cfg := testSoakConfig("multiclock", false)
	cfg.Tiers = "dram:128,cxl:256,pm:1024"
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	s.RunUntil(1_000)
	f, err := s.Capture()
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}

	twoTier := testSoakConfig("multiclock", false)
	other, err := newPristine(twoTier)
	if err != nil {
		t.Fatalf("newPristine: %v", err)
	}
	var cm *snapshot.ConfigMismatchError
	err = snapshot.Restore(other.target(), f)
	if !errors.As(err, &cm) {
		t.Fatalf("Restore 3-tier snapshot onto 2-tier target = %v, want ConfigMismatchError", err)
	}
	for _, want := range []string{snapshot.SecMem, "topology mismatch"} {
		if !strings.Contains(cm.Error(), want) {
			t.Errorf("mismatch error %q does not name %q", cm, want)
		}
	}

	// The opposite direction is rejected the same way.
	s2, err := NewSession(twoTier)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	s2.RunUntil(1_000)
	f2, err := s2.Capture()
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}
	other3, err := newPristine(cfg)
	if err != nil {
		t.Fatalf("newPristine: %v", err)
	}
	if err := snapshot.Restore(other3.target(), f2); !errors.As(err, &cm) {
		t.Fatalf("Restore 2-tier snapshot onto 3-tier target = %v, want ConfigMismatchError", err)
	}
}

// TestSnapshotVersion1Rejected: the topology header bumped the container
// format to 2 and the counting latency histogram to 3, so a file of either
// earlier version (pre-bump layout) is refused with a VersionError instead of
// being misparsed.
func TestSnapshotVersion1Rejected(t *testing.T) {
	if snapshot.Version < 3 {
		t.Fatalf("container version = %d, expected the histogram-format bump to 3+", snapshot.Version)
	}
	for _, old := range []uint32{1, 2} {
		f := snapshot.NewFile()
		f.Version = old
		f.AddSection(snapshot.SecConfig, []byte("x"))
		var ve *snapshot.VersionError
		if _, err := snapshot.Decode(f.Encode()); !errors.As(err, &ve) {
			t.Fatalf("Decode version-%d container = %v, want VersionError", old, err)
		}
		if ve.Got != old || ve.Want != snapshot.Version {
			t.Errorf("VersionError = got %d want %d, expected got %d want %d", ve.Got, ve.Want, old, snapshot.Version)
		}
	}
}

// TestGoldenTopologyPinned proves the explicit -tiers construction path is
// byte-identical to the legacy two-tier default by replaying the golden
// grid's multiclock cell through a spec-built topology and comparing it
// against the checked-in PR 6 fixture (which predates the tier API and must
// not be regenerated).
func TestGoldenTopologyPinned(t *testing.T) {
	sc := goldenScale(nil)
	sc.Tiers = fmt.Sprintf("dram:%d,pm:%d", sc.DRAMPages, sc.PMPages)
	got := goldenYCSB(sc, "multiclock", false, []ycsb.Workload{ycsb.WorkloadA, ycsb.WorkloadD})

	full, err := os.ReadFile(goldenPath("golden_report.txt"))
	if err != nil {
		t.Fatalf("missing golden fixture: %v", err)
	}
	idx := bytes.Index(full, []byte("\n== nimble =="))
	if idx < 0 {
		t.Fatalf("golden fixture lacks the nimble cell marker")
	}
	want := string(full[:idx])
	if got != want {
		t.Errorf("spec-built topology diverged from the checked-in two-tier fixture (first divergence at byte %d)",
			firstDiff([]byte(got), []byte(want)))
	}
}
