package fault

import (
	"fmt"
	"strings"
	"testing"

	"multiclock/internal/sim"
)

func TestZeroRateInjectsNothingAndDrawsNothing(t *testing.T) {
	clock := sim.NewClock()
	f := New(clock, Config{Seed: 7})
	// Capture the RNG sequence by building a twin injector and exhausting
	// the same calls: if disabled kinds drew randomness, the sequences
	// would diverge once one kind is enabled later.
	for i := 0; i < 1000; i++ {
		if f.MigrationPinned() || f.TargetDenied() || f.AllocDenied(true) {
			t.Fatal("zero-rate injector injected a fault")
		}
		if f.AccessDelay(true, 300) != 0 || f.Overrun(100) != 0 {
			t.Fatal("zero-rate injector charged latency")
		}
	}
	if f.Counters.Total() != 0 {
		t.Fatalf("counters nonzero: %v", f.Counters)
	}
}

func TestNilInjectorIsSafe(t *testing.T) {
	var f *Injector
	if f.MigrationPinned() || f.TargetDenied() || f.AllocDenied(true) {
		t.Fatal("nil injector injected")
	}
	if f.AccessDelay(true, 300) != 0 || f.Overrun(100) != 0 {
		t.Fatal("nil injector charged latency")
	}
}

func TestDeterministicSequence(t *testing.T) {
	run := func() ([]bool, Counters) {
		clock := sim.NewClock()
		f := New(clock, UniformRate(42, 0.1))
		var seq []bool
		for i := 0; i < 2000; i++ {
			seq = append(seq, f.MigrationPinned(), f.TargetDenied())
			clock.Advance(10 * sim.Microsecond)
		}
		return seq, f.Counters
	}
	s1, c1 := run()
	s2, c2 := run()
	if c1 != c2 {
		t.Fatalf("counters diverged: %v vs %v", c1, c2)
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("fault sequence diverged at %d", i)
		}
	}
	if c1.Total() == 0 {
		t.Fatal("rate 0.1 over 4000 trials injected nothing")
	}
}

func TestRateOneAlwaysInjects(t *testing.T) {
	f := New(sim.NewClock(), UniformRate(1, 1.0))
	for i := 0; i < 100; i++ {
		if !f.MigrationPinned() {
			t.Fatal("rate-1 injector skipped a fault")
		}
	}
	if f.Counters.Injected[MigratePinned] != 100 {
		t.Fatalf("pinned count = %d", f.Counters.Injected[MigratePinned])
	}
}

func TestPMSlowdownWindow(t *testing.T) {
	clock := sim.NewClock()
	cfg := Config{Seed: 3}
	cfg.Rates[PMSlowdown] = 1.0
	f := New(clock, cfg)

	// First access opens the window; extra = (4-1) × base.
	if d := f.AccessDelay(true, 300); d != 900 {
		t.Fatalf("slowdown delay = %v, want 900ns", d)
	}
	opened := f.Counters.Injected[PMSlowdown]
	if opened != 1 {
		t.Fatalf("windows opened = %d", opened)
	}
	// Inside the window: same penalty, no new window counted.
	clock.Advance(100 * sim.Microsecond)
	if d := f.AccessDelay(true, 300); d != 900 {
		t.Fatalf("in-window delay = %v", d)
	}
	if f.Counters.Injected[PMSlowdown] != opened {
		t.Fatal("in-window access opened another window")
	}
	// DRAM accesses never pay.
	if f.AccessDelay(false, 80) != 0 {
		t.Fatal("DRAM access charged a PM slowdown")
	}
	// Past the window (5 ms) a new one opens (rate 1).
	clock.Advance(pmSlowdownWindow)
	if d := f.AccessDelay(true, 300); d != 900 {
		t.Fatalf("post-window delay = %v", d)
	}
	if f.Counters.Injected[PMSlowdown] != opened+1 {
		t.Fatal("expired window not reopened")
	}
}

func TestAllocStormOnlyNearWatermark(t *testing.T) {
	clock := sim.NewClock()
	cfg := Config{Seed: 5}
	cfg.Rates[AllocStorm] = 1.0
	f := New(clock, cfg)

	if f.AllocDenied(false) {
		t.Fatal("storm struck a node with plenty of memory")
	}
	if !f.AllocDenied(true) {
		t.Fatal("rate-1 storm did not strike near watermark")
	}
	// The storm persists inside its window and each denial is counted.
	clock.Advance(500 * sim.Microsecond)
	if !f.AllocDenied(true) {
		t.Fatal("storm did not persist within its window")
	}
	if f.AllocDenied(false) {
		t.Fatal("storm denial away from watermarks")
	}
	if got := f.Counters.Injected[AllocStorm]; got != 2 {
		t.Fatalf("storm denials = %d, want 2", got)
	}
}

func TestOverrunScalesInterval(t *testing.T) {
	cfg := Config{Seed: 9}
	cfg.Rates[DaemonOverrun] = 1.0
	f := New(sim.NewClock(), cfg)
	if d := f.Overrun(10 * sim.Millisecond); d != 15*sim.Millisecond {
		t.Fatalf("overrun = %v, want 1.5 × 10ms", d)
	}
}

func TestParseSpec(t *testing.T) {
	c, err := ParseSpec("42,0.01")
	if err != nil {
		t.Fatal(err)
	}
	if c.Seed != 42 || c.Rates[MigratePinned] != 0.01 || !c.Enabled() {
		t.Fatalf("parsed %+v", c)
	}
	if c, err := ParseSpec(""); err != nil || c.Enabled() {
		t.Fatalf("empty spec: %+v, %v", c, err)
	}
	for _, bad := range []string{"42", "a,0.1", "1,x", "1,1.5", "1,-0.1", "1,0.1,2"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("ParseSpec(%q) accepted", bad)
		}
	}
}

func TestCountersString(t *testing.T) {
	var c Counters
	c.Injected[MigratePinned] = 3
	s := c.String()
	if !strings.Contains(s, "migrate-pinned=3") || !strings.Contains(s, "daemon-overrun=0") {
		t.Fatalf("report %q", s)
	}
}

func TestWindowLogRecordsOpens(t *testing.T) {
	clock := sim.NewClock()
	cfg := Config{Seed: 11}
	cfg.Rates[PMSlowdown] = 1.0
	cfg.Rates[AllocStorm] = 1.0
	f := New(clock, cfg)
	f.EnableWindowLog(0) // default cap

	// Logging off until enabled; nil injector is safe.
	var nilInj *Injector
	nilInj.EnableWindowLog(10)
	if nilInj.Windows() != nil || nilInj.WindowsDropped() != 0 {
		t.Fatal("nil injector logged windows")
	}

	f.AccessDelay(true, 300) // opens a PM slowdown at t=0
	clock.Advance(100 * sim.Microsecond)
	f.AccessDelay(true, 300) // inside the window: no new entry
	f.AllocDenied(true)      // opens a storm at t=100µs
	clock.Advance(5 * sim.Millisecond)
	f.AccessDelay(true, 300) // reopens at t=5.1ms, past the 5 ms window

	ws := f.Windows()
	if len(ws) != 3 {
		t.Fatalf("logged %d windows, want 3: %v", len(ws), ws)
	}
	want := []Window{
		{PMSlowdown, 0, sim.Time(pmSlowdownWindow)},
		{AllocStorm, sim.Time(100 * sim.Microsecond), sim.Time(100*sim.Microsecond) + sim.Time(stormWindow)},
		{PMSlowdown, sim.Time(5100 * sim.Microsecond), sim.Time(5100*sim.Microsecond) + sim.Time(pmSlowdownWindow)},
	}
	for i, w := range ws {
		if w != want[i] {
			t.Fatalf("window %d = %+v, want %+v", i, w, want[i])
		}
	}
	if f.WindowsDropped() != 0 {
		t.Fatalf("dropped = %d", f.WindowsDropped())
	}
}

func TestWindowLogCapDropsAndCounts(t *testing.T) {
	clock := sim.NewClock()
	cfg := Config{Seed: 13}
	cfg.Rates[PMSlowdown] = 1.0
	f := New(clock, cfg)
	f.EnableWindowLog(2)
	for i := 0; i < 5; i++ {
		f.AccessDelay(true, 300)
		clock.Advance(pmSlowdownWindow)
	}
	if len(f.Windows()) != 2 || f.WindowsDropped() != 3 {
		t.Fatalf("windows=%d dropped=%d, want 2/3", len(f.Windows()), f.WindowsDropped())
	}
}

func TestWindowLogOffIsFree(t *testing.T) {
	clock := sim.NewClock()
	cfg := Config{Seed: 17}
	cfg.Rates[PMSlowdown] = 1.0
	f := New(clock, cfg)
	f.AccessDelay(true, 300)
	if f.Windows() != nil || f.WindowsDropped() != 0 {
		t.Fatal("disabled window log recorded state")
	}
}

// FuzzParseSpec feeds the -chaos grammar arbitrary text: nothing panics, and
// an accepted spec is a uniform campaign with a probability for a rate — NaN
// is not one — that its own spelling parses back to.
func FuzzParseSpec(f *testing.F) {
	for _, spec := range []string{
		"", "42,0.01", " 7 , 1 ", "7,0", "7", "7,0.5,1", ",", "x,0.1", "-1,0.1", "7,1.5", "7,-0",
		"7,NaN", "7,Inf", "7,1e-400", "7,0x1p-2", "18446744073709551616,0.1",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := ParseSpec(spec)
		if err != nil {
			return
		}
		rate := cfg.Rates[0]
		if !(rate >= 0 && rate <= 1) {
			t.Fatalf("ParseSpec(%q) accepted rate %v", spec, rate)
		}
		if cfg != UniformRate(cfg.Seed, rate) {
			t.Fatalf("ParseSpec(%q) = %+v, not a uniform campaign", spec, cfg)
		}
		if spec == "" {
			if cfg.Enabled() {
				t.Fatal("the empty spec enabled injection")
			}
			return
		}
		if again, err := ParseSpec(fmt.Sprintf("%d,%v", cfg.Seed, rate)); err != nil || again != cfg {
			t.Fatalf("ParseSpec(%q) = %+v, but its spelling parses to %+v, %v", spec, cfg, again, err)
		}
	})
}
