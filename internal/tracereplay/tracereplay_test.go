package tracereplay

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"

	"multiclock/internal/core"
	"multiclock/internal/machine"
	"multiclock/internal/pagetable"
	"multiclock/internal/policy"
	"multiclock/internal/sim"
)

func newM(p machine.Policy) *machine.Machine {
	cfg := machine.DefaultConfig()
	cfg.Mem.DRAMNodes = []int{512}
	cfg.Mem.PMNodes = []int{2048}
	cfg.OpCost = 0
	return machine.New(cfg, p)
}

// capture runs a small skewed workload under static tiering with a
// recorder attached and returns the trace bytes.
func capture(t testing.TB, accesses int) []byte {
	t.Helper()
	m := newM(policy.NewStatic())
	var buf bytes.Buffer
	rec, err := NewRecorder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	m.Attach(rec)
	as := m.NewSpace()
	v := as.Mmap(800, false, "w")
	rng := sim.NewRNG(4)
	for i := 0; i < accesses; i++ {
		var idx int
		if rng.Intn(10) < 8 {
			idx = rng.Intn(100)
		} else {
			idx = rng.Intn(800)
		}
		m.Access(as, v.Start+pagetable.VPN(idx), rng.Intn(3) == 0)
		m.Compute(500 * sim.Nanosecond)
	}
	if rec.Records() != int64(accesses) {
		t.Fatalf("recorded %d, want %d", rec.Records(), accesses)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	data := capture(t, 1000)
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	var lastGapSum sim.Duration
	for {
		rec, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.VPN == 0 {
			t.Fatal("VPN 0 is never mapped")
		}
		lastGapSum += rec.Gap
		n++
	}
	if n != 1000 {
		t.Fatalf("read %d records, want 1000", n)
	}
	if lastGapSum <= 0 {
		t.Fatal("gaps did not accumulate")
	}
}

func TestCompactEncoding(t *testing.T) {
	data := capture(t, 1000)
	perRecord := float64(len(data)-5) / 1000
	if perRecord > 8 {
		t.Fatalf("%.1f bytes/record, want compact (<8)", perRecord)
	}
}

func TestReplayFast(t *testing.T) {
	data := capture(t, 2000)
	m := newM(policy.NewStatic())
	res, err := Replay(m, bytes.NewReader(data), Fast)
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 2000 {
		t.Fatalf("replayed %d", res.Records)
	}
	if got := m.Mem.Counters.TotalAccesses(); got == 0 {
		t.Fatal("replay issued no accesses")
	}
	if res.Elapsed <= 0 {
		t.Fatal("no virtual time elapsed")
	}
}

func TestReplayTimedPreservesPacing(t *testing.T) {
	data := capture(t, 2000)
	mFast := newM(policy.NewStatic())
	fast, _ := Replay(mFast, bytes.NewReader(data), Fast)
	mTimed := newM(policy.NewStatic())
	timed, _ := Replay(mTimed, bytes.NewReader(data), Timed)
	if timed.Elapsed <= fast.Elapsed {
		t.Fatalf("timed replay (%v) not slower than fast (%v)", timed.Elapsed, fast.Elapsed)
	}
	// Original run: 2000 × ~500ns gaps ≈ 1ms minimum.
	if timed.Elapsed < 1*sim.Millisecond {
		t.Fatalf("timed replay too fast: %v", timed.Elapsed)
	}
}

// TestReplayAcrossPolicies: the same trace can drive any policy; under
// multiclock the daemons run during Timed replay and promote the hot set.
func TestReplayAcrossPolicies(t *testing.T) {
	// Record a longer skewed run so daemons have time to act on replay.
	m0 := newM(policy.NewStatic())
	var buf bytes.Buffer
	rec, _ := NewRecorder(&buf)
	m0.Attach(rec)
	as := m0.NewSpace()
	v := as.Mmap(800, false, "w")
	// Pre-fault in reverse so the later-hot low pages land in PM.
	for i := 799; i >= 0; i-- {
		m0.Access(as, v.Start+pagetable.VPN(i), false)
	}
	// Two phases with disjoint hot sets: phase 2's hot pages go cold in
	// phase 1 (demoted to PM) and must be promoted back — tier-friendly
	// bimodal pages.
	rng := sim.NewRNG(4)
	for i := 0; i < 30000; i++ {
		hotBase := 0
		if i >= 15000 {
			hotBase = 700
		}
		var idx int
		if rng.Intn(10) < 8 {
			idx = hotBase + rng.Intn(100)
		} else {
			idx = rng.Intn(800)
		}
		m0.Access(as, v.Start+pagetable.VPN(idx), false)
		m0.Compute(2 * sim.Microsecond)
	}
	rec.Close()

	mc := core.New(core.Config{ScanInterval: 5 * sim.Millisecond})
	m := newM(mc)
	res, err := Replay(m, bytes.NewReader(buf.Bytes()), Timed)
	if err != nil {
		t.Fatal(err)
	}
	mc.Stop()
	if res.Records != 30800 {
		t.Fatal("record count")
	}
	if m.Mem.Counters.Promotions == 0 {
		t.Fatal("multiclock replay promoted nothing on a skewed trace")
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("nope!"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := NewReader(bytes.NewReader([]byte{'M', 'C', 'T', 'R', 99})); err == nil {
		t.Fatal("bad version accepted")
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream accepted")
	}
}

func TestReaderTruncatedRecord(t *testing.T) {
	data := capture(t, 10)
	r, err := NewReader(bytes.NewReader(data[:len(data)-2]))
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, err := r.Next()
		if errors.Is(err, io.EOF) {
			t.Fatal("truncation not detected")
		}
		if err != nil {
			return // got the truncation error
		}
	}
}

// trace encodes records as a Recorder would, without range checks.
func trace(recs ...[4]uint64) []byte {
	b := append([]byte{}, magic[:]...)
	b = append(b, version)
	for _, r := range recs {
		b = binary.AppendUvarint(b, r[0])
		b = binary.AppendUvarint(b, r[1])
		b = append(b, byte(r[2]))
		b = binary.AppendUvarint(b, r[3])
	}
	return b
}

func TestReplayRejectsOutOfRangeRecords(t *testing.T) {
	ok := [4]uint64{0, 5, 1, 100} // space, vpn, flags, gap
	for _, c := range []struct {
		name   string
		data   []byte
		record int64
		field  string
	}{
		{"vpn past the replay VMA", trace([4]uint64{0, spacePages, 0, 0}), 0, "vpn"},
		{"vpn after a good record", trace(ok, [4]uint64{3, 1 << 40, 0, 0}), 1, "vpn"},
		{"space past int32", trace(ok, ok, [4]uint64{1 << 31, 5, 0, 0}), 2, "space"},
		{"space wrapping to -1", trace([4]uint64{math.MaxUint64, 5, 0, 0}), 0, "space"},
		{"unknown flag bit", trace(ok, [4]uint64{0, 5, 2, 0}), 1, "flags"},
		{"gap of 2⁶³", trace([4]uint64{0, 5, 0, 1 << 63}), 0, "gap"},
		{"running time wraps", trace([4]uint64{0, 5, 0, 1<<62 - 1}, [4]uint64{0, 6, 0, 1}), 1, "gap"},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, mode := range []Mode{Timed, Fast} {
				_, err := Replay(newM(policy.NewStatic()), bytes.NewReader(c.data), mode)
				var fe *FormatError
				if !errors.As(err, &fe) || fe.Record != c.record || fe.Field != c.field {
					t.Fatalf("mode %d: err %v, want a FormatError for record %d field %s", mode, err, c.record, c.field)
				}
			}
		})
	}
	// The largest values of each field still replay.
	edge := trace(ok, [4]uint64{math.MaxInt32, spacePages - 1, 1, 1<<62 - 101})
	res, err := Replay(newM(policy.NewStatic()), bytes.NewReader(edge), Timed)
	if err != nil || res.Records != 2 {
		t.Fatalf("in-range trace: %d records, err %v", res.Records, err)
	}
}

func FuzzReplay(f *testing.F) {
	data := capture(f, 40)
	f.Add(data)
	for i := range data {
		f.Add(data[:i])
	}
	f.Add(trace([4]uint64{0, spacePages, 0, 0}))
	f.Fuzz(func(t *testing.T, data []byte) {
		m := newM(policy.NewStatic())
		res, err := Replay(m, bytes.NewReader(data), Timed)
		if err != nil {
			return
		}
		if res.Records < 0 || res.Elapsed < 0 {
			t.Fatalf("accepted trace replayed to %+v", res)
		}
	})
}

func TestReplayDeterminism(t *testing.T) {
	data := capture(t, 5000)
	run := func() sim.Duration {
		m := newM(policy.NewStatic())
		res, err := Replay(m, bytes.NewReader(data), Timed)
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed
	}
	if run() != run() {
		t.Fatal("replay not deterministic")
	}
}
