package snapshot

import (
	"errors"
	"fmt"

	"multiclock/internal/kvstore"
	"multiclock/internal/machine"
	"multiclock/internal/mem"
	"multiclock/internal/metrics"
	"multiclock/internal/sim"
	"multiclock/internal/snapcodec"
	"multiclock/internal/ycsb"
)

// Target is one complete simulated system: everything Capture serializes and
// Restore rebuilds. The policy is reached through the machine; Metrics and
// Run may be nil (no telemetry, no workload in flight).
type Target struct {
	M       *machine.Machine
	Store   *kvstore.Store
	Client  *ycsb.Client
	Run     *ycsb.Run
	Metrics *metrics.Registry
}

// section is one container section: code walks its subsystem's state
// through a codec, in either direction. reg is nil when writing.
type section struct {
	name string
	code func(t *Target, c *snapcodec.Codec, reg *machine.PageRegistry) error
}

// sections lists every state section in restore order. The LRU section
// registers the live pages the machine, policy and later sections resolve;
// mem comes first so a snapshot of another tier hierarchy fails as a
// topology mismatch before anything else is compared. The clock comes after
// the machine, so the container order (SectionOrder, clock first) is not
// the restore order.
var sections = []section{
	{SecMem, func(t *Target, c *snapcodec.Codec, _ *machine.PageRegistry) error { return t.M.Mem.Checkpoint(c) }},
	{SecLRU, func(t *Target, c *snapcodec.Codec, reg *machine.PageRegistry) error { return t.M.CheckpointLRU(c, reg) }},
	{SecMachine, func(t *Target, c *snapcodec.Codec, reg *machine.PageRegistry) error {
		return t.M.CheckpointMachine(c, reg)
	}},
	{SecClock, func(t *Target, c *snapcodec.Codec, _ *machine.PageRegistry) error {
		return checkpointClock(t.M.Clock, c)
	}},
	{SecFault, func(t *Target, c *snapcodec.Codec, _ *machine.PageRegistry) error {
		return optional(c, "fault injection", t.M.Faults != nil, func() error { return t.M.Faults.Checkpoint(c) })
	}},
	{SecPolicy, checkpointPolicy},
	{SecStore, func(t *Target, c *snapcodec.Codec, _ *machine.PageRegistry) error { return t.Store.Checkpoint(c) }},
	{SecWorkload, checkpointWorkload},
	{SecMetrics, func(t *Target, c *snapcodec.Codec, _ *machine.PageRegistry) error {
		return optional(c, "telemetry", t.Metrics != nil, func() error { return t.Metrics.Checkpoint(c) })
	}},
}

// Capture serializes the target at a quiescent boundary into a container.
// The config payload is opaque to this layer: the harness that constructs
// targets writes whatever it needs to rebuild (and cross-check) an identical
// pristine system before Restore.
func Capture(t *Target, config []byte) (*File, error) {
	if n := t.M.Clock.NonDaemonPending(); n != 0 {
		return nil, &NotQuiescentError{Pending: n}
	}
	payloads := map[string][]byte{SecConfig: config}
	for _, s := range sections {
		c := snapcodec.NewWriter()
		if err := s.code(t, c, nil); err != nil {
			return nil, err
		}
		payloads[s.name] = c.Bytes()
	}
	f := NewFile()
	for _, name := range SectionOrder {
		f.AddSection(name, payloads[name])
	}
	return f, nil
}

// Restore rebuilds a saved system's mutable state onto a pristine target of
// identical configuration (the caller read the config section and ran the
// same construction path). On success t.Run holds the restored in-flight
// workload (nil if none was running) and the machine passes its invariant
// checker; on error the target is unusable and must be discarded.
func Restore(t *Target, f *File) error {
	reg := machine.NewPageRegistry()
	for _, s := range sections {
		p, ok := f.Section(s.name)
		if !ok {
			return &CorruptError{Section: s.name, Err: errors.New("section missing")}
		}
		c := snapcodec.NewReader(p)
		err := s.code(t, c, reg)
		if err == nil {
			err = c.Finish()
		}
		if err != nil {
			return wrapSection(s.name, err)
		}
	}
	if err := t.M.CheckInvariants(); err != nil {
		return fmt.Errorf("snapshot: restored state fails machine invariants: %w", err)
	}
	return nil
}

// optional codes a presence-tagged section: whether the component exists,
// then its state when it does. A reader whose target differs in presence
// has a different configuration; what names the component.
func optional(c *snapcodec.Codec, what string, present bool, code func() error) error {
	has := present
	c.Bool(&has)
	if c.Err() != nil {
		return c.Err()
	}
	if has != present {
		return &ConfigMismatchError{Reason: fmt.Sprintf("snapshot %s %v, target %v", what, has, present)}
	}
	if !has {
		return nil
	}
	return code()
}

// checkpointClock codes the virtual clock and every daemon's armed state.
// Reading, it re-arms each daemon at its saved (deadline, sequence) — start
// order is the cross-run identity — then moves the clock itself. Daemons
// first: RestoreTime refuses to rewind the sequence counter.
func checkpointClock(clk *sim.Clock, c *snapcodec.Codec) error {
	now, seq := clk.Now(), clk.Seq()
	snapcodec.I64(c, &now)
	snapcodec.U64(c, &seq)
	ds := clk.Daemons()
	n := len(ds)
	snapcodec.I64(c, &n)
	if c.Err() != nil {
		return c.Err()
	}
	if n != len(ds) {
		// The daemon roster is determined by construction (policy and
		// machine configuration), so a different roster means the snapshot
		// was taken under a different configuration.
		return &ConfigMismatchError{Reason: fmt.Sprintf("snapshot has %d daemons, target clock has %d", n, len(ds))}
	}
	for _, d := range ds {
		st := d.State()
		name := st.Name
		c.String(&st.Name)
		snapcodec.I64(c, &st.Interval)
		snapcodec.I64(c, &st.Runs)
		c.Bool(&st.Stopped)
		snapcodec.I64(c, &st.At)
		snapcodec.U64(c, &st.Seq)
		if c.Err() != nil {
			return c.Err()
		}
		if st.Name != name {
			return &ConfigMismatchError{Reason: fmt.Sprintf("snapshot daemon %q, target daemon %q", st.Name, name)}
		}
		if !st.Stopped && st.Seq > seq {
			return fmt.Errorf("daemon %q wakeup sequence %d exceeds clock sequence %d", st.Name, st.Seq, seq)
		}
		if !st.Stopped && st.At < now {
			// A quiescent clock has fired everything due; a wakeup in the
			// past would replay every missed period at once.
			return fmt.Errorf("daemon %q wakeup at %d precedes the clock at %d", st.Name, st.At, now)
		}
		if c.Reading() {
			if err := d.RestoreState(st); err != nil {
				return err
			}
		}
	}
	if seq < clk.Seq() {
		return fmt.Errorf("snapshot clock sequence %d rewinds target %d", seq, clk.Seq())
	}
	clk.RestoreTime(now, seq)
	return nil
}

// checkpointPolicy codes the policy's name, cross-checked against the
// target's, then its state.
func checkpointPolicy(t *Target, c *snapcodec.Codec, reg *machine.PageRegistry) error {
	name := t.M.Policy.Name()
	c.String(&name)
	if c.Err() != nil {
		return c.Err()
	}
	if name != t.M.Policy.Name() {
		return &ConfigMismatchError{Reason: fmt.Sprintf("snapshot policy %q, target %q", name, t.M.Policy.Name())}
	}
	return t.M.Policy.Checkpoint(c, reg)
}

// checkpointWorkload codes the client and, presence-tagged, the run in
// flight. Reading, t.Run becomes the restored run (nil if none).
func checkpointWorkload(t *Target, c *snapcodec.Codec, _ *machine.PageRegistry) error {
	if err := t.Client.Checkpoint(c); err != nil {
		return err
	}
	inFlight := t.Run != nil
	c.Bool(&inFlight)
	if c.Err() != nil || !inFlight {
		t.Run = nil
		return c.Err()
	}
	if !c.Reading() {
		return t.Run.Checkpoint(c)
	}
	var err error
	t.Run, err = t.Client.RestoreRun(c)
	return err
}

// wrapSection types a section-restore failure. Configuration mismatches
// keep their own type (a memory-topology mismatch surfaces as a config
// mismatch naming the section); everything else decodes under a verified
// checksum yet fails semantic validation, which is corruption.
func wrapSection(name string, err error) error {
	var cm *ConfigMismatchError
	var tm *mem.TopologyMismatchError
	if errors.As(err, &cm) {
		return err
	}
	if errors.As(err, &tm) {
		return &ConfigMismatchError{Reason: fmt.Sprintf("section %q: %s", name, tm.Error())}
	}
	return &CorruptError{Section: name, Err: err}
}
