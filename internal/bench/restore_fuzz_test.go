package bench

import (
	"errors"
	"sync"
	"testing"

	"multiclock/internal/fault"
	"multiclock/internal/sim"
	"multiclock/internal/snapcodec"
	"multiclock/internal/snapshot"
)

// fuzzSoakConfig is testSoakConfig scaled down so one restore-and-finish
// stays in the low milliseconds.
func fuzzSoakConfig(policy string, chaos bool) RunConfig {
	cfg := testSoakConfig(policy, false)
	cfg.Records, cfg.Ops, cfg.DRAMPages, cfg.PMPages = 400, 600, 64, 512
	cfg.Metrics = true
	if chaos {
		cfg.Chaos = fault.UniformRate(42, 0.05)
	}
	return cfg
}

// restoreSeeds are valid mid-run captures of four policies — nomad's under
// fault injection — that FuzzRestoreSession mutates one section at a time.
// amp-lfu's carries a per-page table in its policy section. New seeds go
// last: an input picks its seed by index modulo the count, so the corpus
// under testdata/fuzz names its seed accordingly.
var restoreSeeds = sync.OnceValues(func() ([]*snapshot.File, error) {
	var files []*snapshot.File
	for _, c := range []struct {
		policy string
		chaos  bool
	}{{"multiclock", false}, {"nomad", true}, {"s3fifo", false}, {"amp-lfu", false}} {
		s, err := NewSession(fuzzSoakConfig(c.policy, c.chaos))
		if err != nil {
			return nil, err
		}
		s.RunUntil(300)
		f, err := s.Capture()
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
})

// withinSeedBudget reports whether a decodable config section asks for no
// more work than its seed did. A recipe scaled up — more records, ops or
// workloads, bigger or different memory, a shorter scan interval, a larger
// event ring — is a valid but expensive run, not a malformed input, so the
// fuzzer does not execute it.
func withinSeedBudget(seed, mutated []byte) bool {
	s, _, _, err := decodeSessionState(seed)
	if err != nil {
		panic(err)
	}
	m, _, _, err := decodeSessionState(mutated)
	if err != nil {
		return true // rejected by RestoreSession before it builds anything
	}
	return m.Records <= s.Records && m.Ops <= s.Ops && len(m.Workloads) <= len(s.Workloads) &&
		m.DRAMPages <= s.DRAMPages && m.PMPages <= s.PMPages && m.Tiers == s.Tiers &&
		m.Interval >= s.Interval && m.TraceEvents <= s.TraceEvents
}

// pendingTax reads the daemon charge the next access absorbs from a machine
// section (machine.CheckpointMachine: ops, four RNG words, then the tax).
// A large one is a valid state whose next access advances the clock — and
// every daemon through its wakeups — by that much.
func pendingTax(machineSection []byte) sim.Duration {
	dec := snapcodec.NewDecoder(machineSection)
	for i := 0; i < 5; i++ {
		dec.U64()
	}
	return sim.Duration(dec.I64())
}

// FuzzRestoreSession feeds RestoreSession snapshots whose container is
// intact — every checksum re-computed by snapshot.NewFile/AddSection — but
// one section's payload is truncated, XOR-mutated or extended. Every input
// must be rejected with an error or restore to a session that passes the
// machine invariants and runs to completion; none may panic.
func FuzzRestoreSession(f *testing.F) {
	seeds, err := restoreSeeds()
	if err != nil {
		f.Fatal(err)
	}
	for seed := range seeds {
		f.Add(uint8(seed), uint8(0), uint8(1), uint32(0), []byte{}) // unmutated: must restore and finish
		for sec := range snapshot.SectionOrder {
			f.Add(uint8(seed), uint8(sec), uint8(0), uint32(7), []byte{})
			f.Add(uint8(seed), uint8(sec), uint8(1), uint32(5), []byte{0x80})
			f.Add(uint8(seed), uint8(sec), uint8(2), uint32(11), []byte{1, 2, 3})
		}
	}
	f.Fuzz(func(t *testing.T, seed, sec, op uint8, at uint32, data []byte) {
		base := seeds[int(seed)%len(seeds)]
		target := base.Sections()[int(sec)%len(base.Sections())]
		mut := mutateSection(base, target, op, at, data)
		switch orig, _ := base.Section(target); target {
		case snapshot.SecConfig:
			if cfg, _ := mut.Section(target); !withinSeedBudget(orig, cfg) {
				t.Skip("mutated recipe asks for more work than its seed")
			}
		case snapshot.SecMachine:
			if ms, _ := mut.Section(target); pendingTax(ms) > sim.Second {
				t.Skip("mutated machine charges the next access more than a whole run")
			}
		}
		file, err := snapshot.Decode(mut.Encode())
		if err != nil {
			t.Fatalf("re-encoded container rejected: %v", err)
		}
		s, err := RestoreSession(file)
		if err != nil {
			return
		}
		for _, d := range s.M.Clock.Daemons() {
			if target == snapshot.SecClock && d.Interval < s.Cfg.Interval {
				t.Skip("mutated clock wakes its daemons faster than the recipe")
			}
		}
		if err := s.M.CheckInvariants(); err != nil {
			t.Fatalf("restored session breaks invariants: %v", err)
		}
		if _, err := s.Finish(); err != nil {
			t.Fatalf("restored session cannot finish: %v", err)
		}
	})
}

// mutateSection rebuilds base with one section's payload mutated; the
// container's checksums are computed afresh, so the file decodes.
func mutateSection(base *snapshot.File, target string, op uint8, at uint32, data []byte) *snapshot.File {
	mut := snapshot.NewFile()
	for _, name := range base.Sections() {
		p, _ := base.Section(name)
		if name == target {
			p = mutate(p, op, at, data)
		}
		mut.AddSection(name, p)
	}
	return mut
}

// mutate returns a copy of p truncated at, XOR-ed with data from, or
// extended by data at position at (op mod 3).
func mutate(p []byte, op uint8, at uint32, data []byte) []byte {
	out := append([]byte(nil), p...)
	switch op % 3 {
	case 0:
		return out[:int(at)%(len(out)+1)]
	case 1:
		if len(out) == 0 {
			return out
		}
		for i, b := range data {
			out[(int(at)+i)%len(out)] ^= b
		}
		return out
	default:
		i := int(at) % (len(out) + 1)
		return append(out[:i], append(append([]byte(nil), data...), p[i:]...)...)
	}
}

// TestRestoreSessionRejectsInconsistentState pins the fuzzer's finds: each
// restored before as a session that panicked or never finished, and each is
// now a *snapshot.CorruptError naming the section.
func TestRestoreSessionRejectsInconsistentState(t *testing.T) {
	seeds, err := restoreSeeds()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		seed    int
		section string
		at      uint32
		xor     []byte
	}{
		// The PM node's page count turned negative: building the machine
		// panicked.
		{"negative PM pages", 0, snapshot.SecConfig, 62, []byte{0x80}},
		// The clock jumped 2^47 ns past every armed wakeup: the daemons
		// replayed each missed period.
		{"wakeups behind the clock", 0, snapshot.SecClock, 5, []byte{0x80}},
		// The in-flight run grew to 2^47 ops, not the recipe's count.
		{"run length off the recipe", 0, snapshot.SecWorkload, 52, []byte{0x80}},
		// A negative pending daemon charge would run the clock backwards.
		{"negative daemon tax", 0, snapshot.SecMachine, 47, []byte{0x80}},
		// An item moved outside the carved arena: the next Set touched an
		// unmapped page.
		{"item outside the arena", 1, snapshot.SecStore, 393, []byte("000")},
	} {
		f := mutateSection(seeds[tc.seed], tc.section, 1, tc.at, tc.xor)
		file, err := snapshot.Decode(f.Encode())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		_, err = RestoreSession(file)
		var ce *snapshot.CorruptError
		if !errors.As(err, &ce) || ce.Section != tc.section {
			t.Errorf("%s: got %v, want a *snapshot.CorruptError in section %q", tc.name, err, tc.section)
		}
	}
}
