// Package sim provides the discrete-event simulation engine that underpins
// the hybrid-memory machine: a virtual nanosecond clock, an event queue for
// simulated kernel daemons (kpromoted, kswapd, scanners), and deterministic
// pseudo-random streams.
//
// The engine is intentionally single-threaded. All state advances through
// explicit calls on the owning goroutine, which makes every simulation run
// bit-for-bit reproducible for a given seed — a property the test suite
// checks. Simulated concurrency (multiple daemons, one application thread)
// is expressed as interleaved events on the virtual clock, exactly as a
// trace-driven architectural simulator would do it.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Convenience duration units for virtual time.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// String formats a virtual duration using the most natural unit.
func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", float64(d)/float64(Second))
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	case d >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(d)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(d))
	}
}

// Seconds reports the duration as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// PassHook wraps every daemon wakeup on a clock. The hook must call run
// exactly once; it may observe state around the call (the machine uses it
// to attribute daemon-side work to the pass that charged it) but must not
// advance virtual time itself, or determinism guarantees break.
type PassHook interface {
	DaemonPass(d *Daemon, run func())
}

// Clock tracks virtual time and dispatches due events.
//
// The application (workload) side advances the clock by charging latencies
// with Advance; daemon-side work is scheduled as events which fire when the
// clock passes their deadline. The zero value is not usable; call NewClock.
type Clock struct {
	now Time
	// next is the deadline at the top of events, or noEvent when the heap
	// is empty. It is derived state, written only by push and pop (never
	// serialised), so Advance can tell with one compare that nothing is due.
	next   Time
	events eventHeap
	seq    uint64 // tie-breaker so equal-deadline events fire FIFO

	// daemons lists every daemon ever started on this clock in start order.
	// Construction is deterministic, so the index is a stable cross-run
	// identity — the checkpoint layer re-arms daemons by it.
	daemons []*Daemon

	// Hook, when non-nil, wraps every daemon wakeup (telemetry). Nil adds
	// no work to any path.
	Hook PassHook
}

// noEvent is the next deadline of a clock with an empty heap: later than any
// time Advance can reach.
const noEvent Time = math.MaxInt64

// NewClock returns a clock positioned at time zero with an empty event queue.
func NewClock() *Clock {
	return &Clock{next: noEvent}
}

// Now returns the current virtual time.
func (c *Clock) Now() Time { return c.now }

// Advance moves virtual time forward by d, firing any events whose deadline
// passes. Event callbacks run with the clock set to their deadline, so a
// daemon observes the time it was scheduled for, not the end of the
// application's charge. Negative durations are a programming error.
//
// Advance is small enough to inline at every caller: when no deadline is
// due it is a compare and an add, and the event loop runs out of line.
func (c *Clock) Advance(d Duration) {
	if d < 0 {
		panic("sim: negative Advance")
	}
	c.now += Time(d)
	if c.now >= c.next {
		c.fireDue()
	}
}

// AdvanceTo moves the clock to an absolute time, firing due events.
// It is a no-op if t is in the past.
func (c *Clock) AdvanceTo(t Time) {
	if t <= c.now {
		return
	}
	c.now = t
	if t >= c.next {
		c.fireDue()
	}
}

// fireDue is the slow half of Advance and AdvanceTo, which have already set
// the clock to their target: it fires every event due by the target in
// deadline order, each with the clock at its own deadline, and leaves the
// clock at the target. It stays out of line so that Advance fits the
// inliner's budget.
//
//go:noinline
func (c *Clock) fireDue() {
	target := c.now
	for c.next <= target {
		ev := c.pop()
		if ev.cancelled != nil && *ev.cancelled {
			continue
		}
		c.now = ev.at
		ev.fn()
	}
	c.now = target
}

// Schedule registers fn to run when virtual time reaches now+d.
// It returns a handle that can cancel the event before it fires.
func (c *Clock) Schedule(d Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return c.ScheduleAt(c.now+Time(d), fn)
}

// ScheduleAt registers fn to run at absolute virtual time t. An event
// scheduled in the past is due now: it fires on the next Advance and sees
// the current time, since the clock never runs backwards.
func (c *Clock) ScheduleAt(t Time, fn func()) *Event {
	t = max(t, c.now)
	c.seq++
	ev := &Event{clock: c, cancelled: new(bool)}
	c.push(ev, t, c.seq, fn)
	return ev
}

// push queues fn at (t, seq) under ev's cancel flag and records the deadline
// on ev, without touching the clock's sequence counter. A daemon re-arms
// through it with the Event it owns, so a wakeup allocates nothing, and
// checkpoint restore uses it to re-create a saved heap bit for bit (the
// saved clock sequence is restored separately).
func (c *Clock) push(ev *Event, t Time, seq uint64, fn func()) {
	ev.at, ev.seq = t, seq
	c.events.push(scheduled{at: t, seq: seq, fn: fn, cancelled: ev.cancelled})
	c.next = c.events[0].at
}

// pop removes the heap's top event and refreshes the cached deadline.
func (c *Clock) pop() scheduled {
	ev := c.events.pop()
	c.next = noEvent
	if len(c.events) > 0 {
		c.next = c.events[0].at
	}
	return ev
}

// Pending reports the number of scheduled (uncancelled) events. Cancelled
// events still occupying the heap are not counted.
func (c *Clock) Pending() int {
	n := 0
	for _, ev := range c.events {
		if ev.cancelled == nil || !*ev.cancelled {
			n++
		}
	}
	return n
}

// Drain fires all remaining events in order regardless of horizon; useful in
// tests that want daemons to quiesce. The clock ends at the last deadline.
func (c *Clock) Drain() {
	for len(c.events) > 0 {
		ev := c.pop()
		if ev.cancelled != nil && *ev.cancelled {
			continue
		}
		c.now = ev.at
		ev.fn()
	}
}

// Event is a handle to a scheduled callback.
type Event struct {
	clock     *Clock
	cancelled *bool
	at        Time
	seq       uint64
}

// Cancel prevents the event from firing. Safe to call multiple times and
// after the event has fired.
func (e *Event) Cancel() {
	if e != nil && e.cancelled != nil {
		*e.cancelled = true
	}
}

// scheduled is one queued event.
type scheduled struct {
	at        Time
	seq       uint64
	fn        func()
	cancelled *bool
}

// eventHeap is a binary min-heap on (at, seq). Hand-rolled rather than
// container/heap to avoid interface boxing on the simulator hot path.
type eventHeap []scheduled

func (h *eventHeap) push(ev scheduled) {
	*h = append(*h, ev)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !(*h)[i].before((*h)[parent]) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *eventHeap) pop() scheduled {
	old := *h
	top := old[0]
	last := len(old) - 1
	old[0] = old[last]
	old[last] = scheduled{} // release closure
	*h = old[:last]
	h.siftDown(0)
	return top
}

func (h eventHeap) siftDown(i int) {
	n := len(h)
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && h[left].before(h[smallest]) {
			smallest = left
		}
		if right < n && h[right].before(h[smallest]) {
			smallest = right
		}
		if smallest == i {
			return
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}

func (s scheduled) before(t scheduled) bool {
	if s.at != t.at {
		return s.at < t.at
	}
	return s.seq < t.seq
}

// Daemon is a periodic simulated kernel thread: its body runs every Interval
// of virtual time, mirroring kswapd/kpromoted wakeups. The body may adjust
// Interval between runs (used by the scan-interval sensitivity experiment).
type Daemon struct {
	Name     string
	Interval Duration
	Body     func(now Time)

	clock    *Clock
	ev       Event  // the pending wakeup; re-armed in place
	wake     func() // d.fire, bound once
	stopped  bool
	postpone Duration // extra delay before the next wakeup (consumed by arm)
	Runs     int      // number of completed wakeups
}

// StartDaemon schedules a periodic daemon on the clock, first firing one
// interval from now. The returned daemon can be stopped and reports how many
// times it has run.
func (c *Clock) StartDaemon(name string, interval Duration, body func(now Time)) *Daemon {
	if interval <= 0 {
		panic("sim: daemon interval must be positive")
	}
	d := &Daemon{Name: name, Interval: interval, Body: body, clock: c}
	d.ev = Event{clock: c, cancelled: new(bool)}
	d.wake = d.fire
	c.daemons = append(c.daemons, d)
	d.arm()
	return d
}

func (d *Daemon) arm() {
	delay := d.Interval + d.postpone
	d.postpone = 0
	c := d.clock
	c.seq++
	c.push(&d.ev, c.now+Time(delay), c.seq, d.wake)
}

// cancelPending cancels the queued wakeup ahead of a re-arm. The cancelled
// entry stays on the heap holding the old flag, so the next one needs its own.
func (d *Daemon) cancelPending() {
	d.ev.Cancel()
	d.ev.cancelled = new(bool)
}

// fire is one wakeup: run the body (through the pass hook when installed)
// and re-arm unless stopped.
func (d *Daemon) fire() {
	if d.stopped {
		return
	}
	if h := d.clock.Hook; h != nil {
		h.DaemonPass(d, func() { d.Body(d.clock.Now()) })
	} else {
		d.Body(d.clock.Now())
	}
	d.Runs++
	if !d.stopped {
		d.arm()
	}
}

// Stop halts the daemon; its body will not run again.
func (d *Daemon) Stop() {
	if d == nil || d.stopped {
		return
	}
	d.stopped = true
	d.ev.Cancel()
}

// Postpone delays the daemon's next wakeup by extra beyond its interval,
// modelling a pass that overran its scheduling budget. It accumulates and
// is consumed when the next wakeup is armed, so it only has effect when
// called from within the daemon's own body (before re-arming).
func (d *Daemon) Postpone(extra Duration) {
	if extra < 0 {
		panic("sim: negative Postpone")
	}
	d.postpone += extra
}
