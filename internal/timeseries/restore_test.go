// External test package: it drives the sampler through the bench soak
// harness's checkpoint/restore path, and internal/bench itself imports
// timeseries.
package timeseries_test

import (
	"reflect"
	"testing"

	"multiclock/internal/bench"
	"multiclock/internal/metrics"
	"multiclock/internal/sim"
	"multiclock/internal/snapshot"
	"multiclock/internal/timeseries"
)

// TestSamplerAcrossSnapshotRestore pins the contract the CLIs enforce by
// refusing -series alongside checkpointing: a sampler does not serialize,
// so the supported pattern is attaching a fresh one to the restored system.
// The fresh sampler must open its first window at the restored virtual
// instant (not at zero), count only post-restore flow, and stay passive —
// the restored run's virtual timeline must match a sampler-free replay
// exactly.
func TestSamplerAcrossSnapshotRestore(t *testing.T) {
	cfg := bench.RunConfig{
		Policy:    "multiclock",
		Workloads: []string{"A"},
		Records:   1_000,
		Ops:       3_000,
		DRAMPages: 128,
		PMPages:   1_024,
		Interval:  1 * sim.Millisecond,
		Seed:      1,
	}
	s, err := bench.NewSession(cfg)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	s.RunUntil(1_500)
	f, err := s.Capture()
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}
	data := f.Encode()

	restore := func(attach bool) (*bench.Session, *timeseries.Sampler) {
		g, err := snapshot.Decode(data)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		r, err := bench.RestoreSession(g)
		if err != nil {
			t.Fatalf("RestoreSession: %v", err)
		}
		var sp *timeseries.Sampler
		if attach {
			sp = timeseries.New(r.M, 1*sim.Millisecond, 0)
		}
		return r, sp
	}

	r1, sp := restore(true)
	resumedAt := r1.M.Clock.Now()
	if resumedAt == 0 {
		t.Fatal("restored session resumed at virtual time zero")
	}
	base := r1.M.Mem.Counters.Clone()
	if _, err := r1.Run(bench.SoakHooks{}); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	ex := sp.Export()
	if err := metrics.ValidateSections(nil, ex); err != nil {
		t.Fatalf("post-restore series does not validate: %v", err)
	}
	if len(ex.Windows) == 0 {
		t.Fatal("post-restore sampler recorded nothing")
	}
	if got := ex.Windows[0].Start; got != int64(resumedAt) {
		t.Fatalf("first window opens at %d, restore point was %d", got, int64(resumedAt))
	}
	// The windowed deltas must tile exactly the post-restore flow — none of
	// the pre-checkpoint history may leak into the fresh sampler.
	var reads int64
	for _, w := range ex.Windows {
		reads += w.ReadsDRAM + w.ReadsPM
	}
	c := &r1.M.Mem.Counters
	var want int64
	for tier := range c.Reads {
		want += c.Reads[tier] - base.Reads[tier]
	}
	if reads != want {
		t.Fatalf("windowed reads %d, post-restore machine delta %d", reads, want)
	}

	// Passivity: a second restore without a sampler must land on the same
	// virtual instant with the same counters.
	r2, _ := restore(false)
	if _, err := r2.Run(bench.SoakHooks{}); err != nil {
		t.Fatalf("sampler-free resumed run: %v", err)
	}
	if r1.M.Clock.Now() != r2.M.Clock.Now() {
		t.Fatalf("sampler moved the clock: %d vs %d", r1.M.Clock.Now(), r2.M.Clock.Now())
	}
	if !reflect.DeepEqual(*c, r2.M.Mem.Counters) {
		t.Fatal("sampler changed the machine's counters")
	}
}
