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

// Capture serializes the target at a quiescent boundary into a container.
// The config payload is opaque to this layer: the harness that constructs
// targets writes whatever it needs to rebuild (and cross-check) an identical
// pristine system before Restore.
func Capture(t *Target, config []byte) (*File, error) {
	if n := t.M.Clock.NonDaemonPending(); n != 0 {
		return nil, &NotQuiescentError{Pending: n}
	}
	ps, err := policyCodec(t.M)
	if err != nil {
		return nil, err
	}

	f := NewFile()
	f.AddSection(SecConfig, config)
	f.AddSection(SecClock, encodeClock(t.M.Clock))

	enc := snapcodec.NewEncoder()
	t.M.Mem.SnapshotState(enc)
	f.AddSection(SecMem, enc.Bytes())

	enc = snapcodec.NewEncoder()
	t.M.SnapshotLRUState(enc)
	f.AddSection(SecLRU, enc.Bytes())

	enc = snapcodec.NewEncoder()
	t.M.SnapshotMachineState(enc)
	f.AddSection(SecMachine, enc.Bytes())

	enc = snapcodec.NewEncoder()
	enc.Bool(t.M.Faults != nil)
	if t.M.Faults != nil {
		t.M.Faults.SnapshotState(enc)
	}
	f.AddSection(SecFault, enc.Bytes())

	enc = snapcodec.NewEncoder()
	enc.String(t.M.Policy.Name())
	if err := ps.SnapshotState(enc); err != nil {
		return nil, err
	}
	f.AddSection(SecPolicy, enc.Bytes())

	enc = snapcodec.NewEncoder()
	t.Store.SnapshotState(enc)
	f.AddSection(SecStore, enc.Bytes())

	enc = snapcodec.NewEncoder()
	t.Client.SnapshotState(enc)
	enc.Bool(t.Run != nil)
	if t.Run != nil {
		if err := t.Run.SnapshotState(enc); err != nil {
			return nil, err
		}
	}
	f.AddSection(SecWorkload, enc.Bytes())

	enc = snapcodec.NewEncoder()
	enc.Bool(t.Metrics != nil)
	if t.Metrics != nil {
		t.Metrics.SnapshotState(enc)
	}
	f.AddSection(SecMetrics, enc.Bytes())

	return f, nil
}

// Restore rebuilds a saved system's mutable state onto a pristine target of
// identical configuration (the caller read the config section and ran the
// same construction path). On success t.Run holds the restored in-flight
// workload (nil if none was running) and the machine passes its invariant
// checker; on error the target is unusable and must be discarded.
func Restore(t *Target, f *File) error {
	ps, err := policyCodec(t.M)
	if err != nil {
		return err
	}
	reg := machine.NewPageRegistry()

	dec, err := sectionDecoder(f, SecMem)
	if err != nil {
		return err
	}
	if err := finish(dec, t.M.Mem.RestoreState(dec)); err != nil {
		return wrapSection(SecMem, err)
	}

	if dec, err = sectionDecoder(f, SecLRU); err != nil {
		return err
	}
	if err := finish(dec, t.M.RestoreLRUState(dec, reg)); err != nil {
		return wrapSection(SecLRU, err)
	}

	if dec, err = sectionDecoder(f, SecMachine); err != nil {
		return err
	}
	if err := finish(dec, t.M.RestoreMachineState(dec, reg)); err != nil {
		return wrapSection(SecMachine, err)
	}

	payload, _ := f.Section(SecClock)
	if payload == nil {
		return &CorruptError{Section: SecClock, Err: errors.New("section missing")}
	}
	if err := restoreClock(t.M.Clock, payload); err != nil {
		return wrapSection(SecClock, err)
	}

	if dec, err = sectionDecoder(f, SecFault); err != nil {
		return err
	}
	if err := finish(dec, restoreFault(t.M, dec)); err != nil {
		return wrapSection(SecFault, err)
	}

	if dec, err = sectionDecoder(f, SecPolicy); err != nil {
		return err
	}
	if err := finish(dec, restorePolicy(t.M, ps, dec, reg)); err != nil {
		return wrapSection(SecPolicy, err)
	}

	if dec, err = sectionDecoder(f, SecStore); err != nil {
		return err
	}
	if err := finish(dec, t.Store.RestoreState(dec)); err != nil {
		return wrapSection(SecStore, err)
	}

	if dec, err = sectionDecoder(f, SecWorkload); err != nil {
		return err
	}
	if err := finish(dec, restoreWorkload(t, dec)); err != nil {
		return wrapSection(SecWorkload, err)
	}

	if dec, err = sectionDecoder(f, SecMetrics); err != nil {
		return err
	}
	if err := finish(dec, restoreMetrics(t, dec)); err != nil {
		return wrapSection(SecMetrics, err)
	}

	if err := t.M.CheckInvariants(); err != nil {
		return fmt.Errorf("snapshot: restored state fails machine invariants: %w", err)
	}
	return nil
}

// policyCodec returns the policy's checkpoint codec. Every policy
// bench.NewPolicy builds has one — its table's element type requires it —
// so only a policy defined outside that table can fail here.
func policyCodec(m *machine.Machine) (machine.StateSnapshotter, error) {
	ps, ok := m.Policy.(machine.StateSnapshotter)
	if !ok {
		return nil, fmt.Errorf("snapshot: policy %q has no SnapshotState/RestoreState", m.Policy.Name())
	}
	return ps, nil
}

// encodeClock serializes the virtual clock and every daemon's armed state.
func encodeClock(c *sim.Clock) []byte {
	enc := snapcodec.NewEncoder()
	enc.I64(int64(c.Now()))
	enc.U64(c.Seq())
	ds := c.Daemons()
	enc.Int(len(ds))
	for _, d := range ds {
		st := d.State()
		enc.String(st.Name)
		enc.I64(int64(st.Interval))
		enc.Int(st.Runs)
		enc.Bool(st.Stopped)
		enc.I64(int64(st.At))
		enc.U64(st.Seq)
	}
	return enc.Bytes()
}

// restoreClock re-arms each daemon at its saved (deadline, sequence) — start
// order is the cross-run identity — then moves the clock itself. Daemons
// first: RestoreTime refuses to rewind the sequence counter.
func restoreClock(c *sim.Clock, payload []byte) error {
	dec := snapcodec.NewDecoder(payload)
	now := sim.Time(dec.I64())
	seq := dec.U64()
	n := dec.Int()
	if dec.Err() != nil {
		return dec.Err()
	}
	ds := c.Daemons()
	if n != len(ds) {
		// The daemon roster is determined by construction (policy and
		// machine configuration), so a different roster means the snapshot
		// was taken under a different configuration.
		return &ConfigMismatchError{Reason: fmt.Sprintf("snapshot has %d daemons, target clock has %d", n, len(ds))}
	}
	for _, d := range ds {
		st := sim.DaemonState{
			Name:     dec.String(),
			Interval: sim.Duration(dec.I64()),
			Runs:     dec.Int(),
			Stopped:  dec.Bool(),
			At:       sim.Time(dec.I64()),
			Seq:      dec.U64(),
		}
		if dec.Err() != nil {
			return dec.Err()
		}
		if st.Name != d.State().Name {
			return &ConfigMismatchError{Reason: fmt.Sprintf("snapshot daemon %q, target daemon %q", st.Name, d.State().Name)}
		}
		if !st.Stopped && st.Seq > seq {
			return fmt.Errorf("daemon %q wakeup sequence %d exceeds clock sequence %d", st.Name, st.Seq, seq)
		}
		if !st.Stopped && st.At < now {
			// A quiescent clock has fired everything due; a wakeup in the
			// past would replay every missed period at once.
			return fmt.Errorf("daemon %q wakeup at %d precedes the clock at %d", st.Name, st.At, now)
		}
		if err := d.RestoreState(st); err != nil {
			return err
		}
	}
	if err := dec.Finish(); err != nil {
		return err
	}
	if seq < c.Seq() {
		return fmt.Errorf("snapshot clock sequence %d rewinds target %d", seq, c.Seq())
	}
	c.RestoreTime(now, seq)
	return nil
}

func restoreFault(m *machine.Machine, dec *snapcodec.Decoder) error {
	has := dec.Bool()
	if dec.Err() != nil {
		return dec.Err()
	}
	if has != (m.Faults != nil) {
		return &ConfigMismatchError{Reason: fmt.Sprintf("snapshot fault injection %v, target %v", has, m.Faults != nil)}
	}
	if !has {
		return nil
	}
	return m.Faults.RestoreState(dec)
}

func restorePolicy(m *machine.Machine, ps machine.StateSnapshotter, dec *snapcodec.Decoder, reg *machine.PageRegistry) error {
	name := dec.String()
	if dec.Err() != nil {
		return dec.Err()
	}
	if name != m.Policy.Name() {
		return &ConfigMismatchError{Reason: fmt.Sprintf("snapshot policy %q, target %q", name, m.Policy.Name())}
	}
	return ps.RestoreState(dec, reg)
}

func restoreWorkload(t *Target, dec *snapcodec.Decoder) error {
	if err := t.Client.RestoreState(dec); err != nil {
		return err
	}
	inFlight := dec.Bool()
	if dec.Err() != nil {
		return dec.Err()
	}
	t.Run = nil
	if !inFlight {
		return nil
	}
	run, err := t.Client.RestoreRun(dec)
	if err != nil {
		return err
	}
	t.Run = run
	return nil
}

func restoreMetrics(t *Target, dec *snapcodec.Decoder) error {
	has := dec.Bool()
	if dec.Err() != nil {
		return dec.Err()
	}
	if has != (t.Metrics != nil) {
		return &ConfigMismatchError{Reason: fmt.Sprintf("snapshot telemetry %v, target %v", has, t.Metrics != nil)}
	}
	if !has {
		return nil
	}
	return t.Metrics.RestoreState(dec)
}

// sectionDecoder returns a decoder over a named section's payload.
func sectionDecoder(f *File, name string) (*snapcodec.Decoder, error) {
	p, ok := f.Section(name)
	if !ok {
		return nil, &CorruptError{Section: name, Err: errors.New("section missing")}
	}
	return snapcodec.NewDecoder(p), nil
}

// finish folds a restore error with exact-consumption checking.
func finish(dec *snapcodec.Decoder, err error) error {
	if err != nil {
		return err
	}
	return dec.Finish()
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
