package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"multiclock/internal/sim"
	"multiclock/internal/snapshot"
)

// The YCSB client draws its operations ahead of the store, in chunks of
// 4 096, and re-derives its position when a snapshot lands inside one
// (internal/ycsb, ahead.go). These captures pin that position in the MCSNAP
// bytes themselves: each hash below is the whole container at one op
// boundary, recorded while the client still drew every op in line.

// drawAheadConfig runs A, D and E on one client: A's and D's windows straddle
// their runs' first chunk boundary, op 4 096 of each, and E stops on its
// first scan with the draws of its second chunk in flight.
func drawAheadConfig() RunConfig {
	return RunConfig{
		Policy:    "multiclock",
		Workloads: []string{"A", "D", "E"},
		Records:   2_000,
		Ops:       3*4096 + 50,
		DRAMPages: 128,
		PMPages:   1_024,
		Interval:  1 * sim.Millisecond,
		Seed:      1,
	}
}

// drawAheadCaptures are the op boundaries captured and their containers'
// SHA-256.
var drawAheadCaptures = []struct {
	op   int64
	hash string
}{
	// A: its first chunk ends at op 4 096.
	{4093, "6a7a9b54c156b8ab6af682d74c0d36090dea8a4a359b0f37f680034e2e27fce8"},
	{4094, "c72b79a4be475ab61e82113f92481c1d2f8589ca8779ab869abfde8d52aab19b"},
	{4095, "9d47b049d3839e25eb4d35dfb68cb2016317722961aee7be5b3a7799d2d54cdd"},
	{4096, "1d781f350e7ffd92ea89254e760c06df3f609b64118c0fd083cb4e41f31277a0"},
	{4097, "3e66f331fa6a03c88204ea46a235da6234c784535e851f8e11c8e6a13cd71658"},
	{4098, "75f5e75c94e36aedce7ec7bc0515f7a861f8a36611ad1a44ef26cb4a62eb4ca7"},
	{4099, "75423e5f34d2007665ddaa0c0d84a7451976c08d892450c51c56f5c49041a823"},
	// D starts at op 12 338; its first chunk ends at 16 434.
	{16431, "bbf8ea88e22f14f6cd66c9a8c6d38b609219130fa33456a0ec1129b690d449db"},
	{16432, "61d3ee2724c32bf4510fa0de83ea6c65aece1c2c7db11026cb80d467e167ce1c"},
	{16433, "c56de4e1f080a1d15908e35f1a8a1232dd6a056a4148e2c7e835d905bacfc46e"},
	{16434, "59c7a9e1d8737dc3814178d401ae78ba1217e50118f5cc13edc46832ca1b4943"},
	{16435, "cf0b71405265e62d36fe3b37f189eaaef89e225a6ec2d73848971ade9759ef25"},
	{16436, "fe72fc2b387c54a28517cfa2e1979c0fcf50ecf64bf4be939e0ca25fc8b83a7a"},
	{16437, "af6c2c99b1978589102eda0bf6236230fd4f6ef56d81a2ebcf226fb763af3afd"},
	// D's end, then E, whose first op is a scan: the session ends there.
	{24676, "e97a7b036dcfea078de64cd6105fe1f0494b7c0d3fa19d01f3764133481ea8df"},
	{24677, "17d3dfd811ca19c4d0e8e125904822a93f9436c46aecbf41de2b59107e350e37"},
}

// TestSnapshotInsideAChunk captures a session at every op boundary of a
// window around a chunk boundary of A and of D, and at E's unsupported stop.
// Each container must hash as the in-line client's did, and a session
// restored from it must finish with the straight run's report and state.
func TestSnapshotInsideAChunk(t *testing.T) {
	cfg := drawAheadConfig()
	straight, rec, _ := runStraight(t, cfg)
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range drawAheadCaptures {
		s.RunUntil(want.op)
		f, err := s.Capture()
		if err != nil {
			t.Fatalf("Capture at op %d: %v", want.op, err)
		}
		data := f.Encode()
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != want.hash {
			t.Errorf("op %d: container hashes to %s, the in-line client's to %s", want.op, got, want.hash)
		}
		f2, err := snapshot.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		r, err := RestoreSession(f2)
		if err != nil {
			t.Fatalf("RestoreSession at op %d: %v", want.op, err)
		}
		resumed, err := r.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if resumed != straight {
			t.Errorf("op %d: resumed report differs from the straight run's:\n%s\n%s", want.op, resumed, straight)
		}
		rec2, err := r.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		diffFingerprints(t, rec, rec2)
	}
}
