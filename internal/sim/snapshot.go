package sim

import (
	"fmt"

	"multiclock/internal/snapcodec"
)

// Checkpoint support. A snapshot is only taken at a quiescent boundary: the
// only live events on the heap are the armed daemons' next wakeups. At such
// a boundary the clock's full state is (now, seq) plus one (deadline, seq)
// pair per armed daemon, and a restored run replays bit for bit because the
// heap — including FIFO tie-breaker sequence numbers — is reconstructed
// exactly. Daemon identity across runs is the start index on the clock:
// construction is deterministic, so daemon i of the restored world is daemon
// i of the saved one (names are kept as a sanity check only, since several
// daemons may share one, e.g. per-node "kpromoted" threads).

// Checkpoint codes the RNG's xoshiro256** state words.
func (r *RNG) Checkpoint(c *snapcodec.Codec) {
	for i := range r.s {
		snapcodec.U64(c, &r.s[i])
	}
}

// Daemons returns every daemon ever started on the clock, in start order.
// The slice is the clock's own registry; callers must not mutate it.
func (c *Clock) Daemons() []*Daemon { return c.daemons }

// Seq returns the clock's event sequence counter (the FIFO tie-breaker).
func (c *Clock) Seq() uint64 { return c.seq }

// NonDaemonPending counts live events on the heap that are not an armed
// daemon's next wakeup. A checkpoint requires this to be zero: one-shot
// Schedule events (e.g. a time-series sampler) hold closures that cannot be
// serialized, so their presence makes the clock non-quiescent.
func (c *Clock) NonDaemonPending() int {
	owned := make(map[uint64]bool, len(c.daemons))
	for _, d := range c.daemons {
		if !d.stopped && !*d.ev.cancelled {
			owned[d.ev.seq] = true
		}
	}
	n := 0
	for _, ev := range c.events {
		if (ev.cancelled == nil || !*ev.cancelled) && !owned[ev.seq] {
			n++
		}
	}
	return n
}

// RestoreTime moves the clock to an absolute (now, seq) without firing any
// events. Restore-only: the saved sequence is by construction at least as
// large as every pending event's, so monotonicity of future ScheduleAt calls
// is preserved.
func (c *Clock) RestoreTime(now Time, seq uint64) {
	if seq < c.seq {
		panic(fmt.Sprintf("sim: RestoreTime would rewind seq %d to %d", c.seq, seq))
	}
	c.now = now
	c.seq = seq
}

// DaemonState is one daemon's serializable state at a quiescent boundary.
type DaemonState struct {
	Name     string
	Interval Duration
	Runs     int
	Stopped  bool
	// At and Seq are the pending wakeup's deadline and heap tie-breaker;
	// meaningless when Stopped.
	At  Time
	Seq uint64
}

// State captures the daemon's serializable state. It must only be called at
// a quiescent boundary (the daemon armed or stopped, never mid-body): the
// postpone accumulator is consumed when the next wakeup is armed, so it is
// always zero here and is not part of the state.
func (d *Daemon) State() DaemonState {
	st := DaemonState{Name: d.Name, Interval: d.Interval, Runs: d.Runs, Stopped: d.stopped}
	if d.postpone != 0 {
		panic("sim: Daemon.State mid-body (postpone pending)")
	}
	if !d.stopped {
		st.At, st.Seq = d.ev.at, d.ev.seq
	}
	return st
}

// RestoreState rewinds a freshly-armed daemon to a saved state: the pending
// wakeup is cancelled and re-armed at the exact saved (deadline, seq).
// Restore-only; must run before the clock's own RestoreTime so the sanity
// checks in push-based paths see a consistent view.
func (d *Daemon) RestoreState(st DaemonState) error {
	if st.Name != d.Name {
		return fmt.Errorf("sim: daemon state %q restored onto daemon %q", st.Name, d.Name)
	}
	if st.Interval <= 0 {
		// The daemon would re-arm at its own wakeup time forever.
		return fmt.Errorf("sim: daemon %q restored with interval %d", st.Name, st.Interval)
	}
	d.Interval = st.Interval
	d.Runs = st.Runs
	if st.Stopped {
		d.Stop()
		return nil
	}
	d.cancelPending()
	d.clock.push(&d.ev, st.At, st.Seq, d.wake)
	return nil
}
