package sim

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestClockStartsAtZero(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatalf("new clock at %d, want 0", c.Now())
	}
}

func TestAdvanceMovesTime(t *testing.T) {
	c := NewClock()
	c.Advance(5 * Millisecond)
	if got := c.Now(); got != Time(5*Millisecond) {
		t.Fatalf("Now = %d, want %d", got, 5*Millisecond)
	}
	c.Advance(0)
	if got := c.Now(); got != Time(5*Millisecond) {
		t.Fatalf("Advance(0) moved time to %d", got)
	}
}

func TestAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Advance did not panic")
		}
	}()
	NewClock().Advance(-1)
}

func TestScheduleFiresAtDeadline(t *testing.T) {
	c := NewClock()
	var firedAt Time = -1
	c.Schedule(100, func() { firedAt = c.Now() })
	c.Advance(99)
	if firedAt != -1 {
		t.Fatalf("event fired early at %d", firedAt)
	}
	c.Advance(1)
	if firedAt != 100 {
		t.Fatalf("event fired at %d, want 100", firedAt)
	}
}

func TestEventsFireInDeadlineOrder(t *testing.T) {
	c := NewClock()
	var order []int
	c.Schedule(300, func() { order = append(order, 3) })
	c.Schedule(100, func() { order = append(order, 1) })
	c.Schedule(200, func() { order = append(order, 2) })
	c.Advance(1000)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("fire order = %v, want [1 2 3]", order)
	}
}

func TestEqualDeadlineEventsFireFIFO(t *testing.T) {
	c := NewClock()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		c.Schedule(50, func() { order = append(order, i) })
	}
	c.Advance(50)
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated: order = %v", order)
		}
	}
}

func TestEventSeesItsDeadlineAsNow(t *testing.T) {
	c := NewClock()
	var seen Time
	c.Schedule(40, func() { seen = c.Now() })
	c.Advance(1000)
	if seen != 40 {
		t.Fatalf("event saw Now=%d, want 40", seen)
	}
	if c.Now() != 1000 {
		t.Fatalf("clock ended at %d, want 1000", c.Now())
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	c := NewClock()
	fired := false
	ev := c.Schedule(10, func() { fired = true })
	ev.Cancel()
	ev.Cancel() // idempotent
	c.Advance(100)
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestScheduleFromWithinEvent(t *testing.T) {
	c := NewClock()
	var times []Time
	c.Schedule(10, func() {
		times = append(times, c.Now())
		c.Schedule(10, func() { times = append(times, c.Now()) })
	})
	c.Advance(100)
	if len(times) != 2 || times[0] != 10 || times[1] != 20 {
		t.Fatalf("nested scheduling times = %v, want [10 20]", times)
	}
}

func TestScheduleAtPastFiresOnNextAdvance(t *testing.T) {
	c := NewClock()
	c.Advance(100)
	fired := false
	var seen Time
	c.ScheduleAt(50, func() { fired, seen = true, c.Now() })
	last := c.Now()
	c.ScheduleAt(60, func() {
		if c.Now() < last {
			t.Errorf("time went back from %d to %d", last, c.Now())
		}
		last = c.Now()
	})
	c.Advance(1)
	if !fired {
		t.Fatal("past-deadline event did not fire")
	}
	if seen != 100 {
		t.Fatalf("past-deadline event saw Now=%d, want 100", seen)
	}
	if c.Now() != 101 || last != 100 {
		t.Fatalf("clock at %d, last event at %d; want 101 and 100", c.Now(), last)
	}
}

func TestAdvanceTo(t *testing.T) {
	c := NewClock()
	c.AdvanceTo(500)
	if c.Now() != 500 {
		t.Fatalf("AdvanceTo: now=%d", c.Now())
	}
	c.AdvanceTo(100) // past, no-op
	if c.Now() != 500 {
		t.Fatalf("AdvanceTo past moved clock to %d", c.Now())
	}
}

func TestPendingCountsUncancelled(t *testing.T) {
	c := NewClock()
	c.Schedule(10, func() {})
	ev := c.Schedule(20, func() {})
	ev.Cancel()
	if got := c.Pending(); got != 1 {
		t.Fatalf("Pending = %d, want 1", got)
	}
}

func TestDrainRunsEverything(t *testing.T) {
	c := NewClock()
	n := 0
	c.Schedule(10, func() { n++ })
	c.Schedule(10*Second, func() { n++ })
	c.Drain()
	if n != 2 {
		t.Fatalf("Drain ran %d events, want 2", n)
	}
	if c.Now() != Time(10*Second) {
		t.Fatalf("Drain ended at %d", c.Now())
	}
}

func TestDaemonPeriodicity(t *testing.T) {
	c := NewClock()
	var wakeups []Time
	d := c.StartDaemon("kpromoted", Second, func(now Time) {
		wakeups = append(wakeups, now)
	})
	c.Advance(3500 * Millisecond)
	if d.Runs != 3 {
		t.Fatalf("daemon ran %d times, want 3", d.Runs)
	}
	want := []Time{Time(Second), Time(2 * Second), Time(3 * Second)}
	for i, w := range want {
		if wakeups[i] != w {
			t.Fatalf("wakeups = %v, want %v", wakeups, want)
		}
	}
}

func TestDaemonStop(t *testing.T) {
	c := NewClock()
	d := c.StartDaemon("d", 100, func(Time) {})
	c.Advance(250)
	d.Stop()
	d.Stop() // idempotent
	c.Advance(1000)
	if d.Runs != 2 {
		t.Fatalf("stopped daemon ran %d times, want 2", d.Runs)
	}
}

func TestDaemonIntervalChange(t *testing.T) {
	c := NewClock()
	var wakeups []Time
	var d *Daemon
	d = c.StartDaemon("d", 100, func(now Time) {
		wakeups = append(wakeups, now)
		d.Interval = 200
	})
	c.Advance(500)
	want := []Time{100, 300, 500}
	if len(wakeups) != len(want) {
		t.Fatalf("wakeups = %v, want %v", wakeups, want)
	}
	for i := range want {
		if wakeups[i] != want[i] {
			t.Fatalf("wakeups = %v, want %v", wakeups, want)
		}
	}
}

// A re-arm reuses the daemon's own Event and cancel flag (a 1 ms kpromoted
// used to cost three heap objects per wakeup); the paths that cancel a queued
// wakeup and arm another must still leave the cancelled heap entry dead.
func TestDaemonWakeupAllocatesNothing(t *testing.T) {
	c := NewClock()
	d := c.StartDaemon("d", 100, func(Time) {})
	c.Advance(1000) // let the heap reach its size
	if allocs := testing.AllocsPerRun(100, func() { c.Advance(100) }); allocs != 0 {
		t.Fatalf("a daemon wakeup allocates %v objects, want 0", allocs)
	}
	if d.Runs != 111 {
		t.Fatalf("daemon ran %d times, want 111", d.Runs)
	}
}

// TestDaemonRestoreRejectsNonPositiveInterval: a daemon restored with a zero
// or negative period would re-arm at its own wakeup time forever.
func TestDaemonRestoreRejectsNonPositiveInterval(t *testing.T) {
	d := NewClock().StartDaemon("d", 100, func(Time) {})
	for _, iv := range []Duration{0, -100} {
		st := d.State()
		st.Interval = iv
		if err := d.RestoreState(st); err == nil {
			t.Fatalf("interval %d restored", iv)
		}
	}
	if d.Interval != 100 {
		t.Fatalf("rejected restore changed the interval to %d", d.Interval)
	}
}

// TestDaemonRestoreReplacesTheWakeup: restoring a saved state onto a freshly
// armed daemon, as a snapshot restore does, cancels the fresh wakeup and
// re-arms the saved one with the saved interval.
func TestDaemonRestoreReplacesTheWakeup(t *testing.T) {
	c := NewClock()
	d := c.StartDaemon("d", 100, func(Time) {})
	c.Advance(150)
	st := d.State()
	if st.At != 200 || st.Runs != 1 {
		t.Fatalf("state %+v, want the next wakeup at 200 after 1 run", st)
	}

	c2 := NewClock()
	var wakeups []Time
	d2 := c2.StartDaemon("d", 1000, func(now Time) { wakeups = append(wakeups, now) })
	if err := d2.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	c2.RestoreTime(c.Now(), c.Seq())
	if got := d2.State(); got != st {
		t.Fatalf("restored state %+v, want %+v", got, st)
	}
	if c2.Pending() != 1 || c2.NonDaemonPending() != 0 {
		t.Fatalf("Pending %d NonDaemonPending %d after RestoreState, want 1 and 0", c2.Pending(), c2.NonDaemonPending())
	}
	c2.Advance(2000 - 150)
	var want []Time
	for at := Time(200); at <= 2000; at += 100 {
		want = append(want, at)
	}
	if !slices.Equal(wakeups, want) {
		t.Fatalf("wakeups = %v, want %v", wakeups, want)
	}
}

func TestDaemonPostpone(t *testing.T) {
	c := NewClock()
	var wakeups []Time
	var d *Daemon
	d = c.StartDaemon("d", 100, func(now Time) {
		wakeups = append(wakeups, now)
		if len(wakeups) == 1 {
			// First pass overruns by 150: next wakeup lands at 350, then
			// the normal cadence resumes.
			d.Postpone(150)
		}
	})
	c.Advance(600)
	want := []Time{100, 350, 450, 550}
	if len(wakeups) != len(want) {
		t.Fatalf("wakeups = %v, want %v", wakeups, want)
	}
	for i := range want {
		if wakeups[i] != want[i] {
			t.Fatalf("wakeups = %v, want %v", wakeups, want)
		}
	}
}

func TestDaemonPostponeNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Postpone did not panic")
		}
	}()
	c := NewClock()
	c.StartDaemon("d", 100, func(Time) {}).Postpone(-1)
}

func TestDaemonZeroIntervalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero interval did not panic")
		}
	}()
	NewClock().StartDaemon("bad", 0, func(Time) {})
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500, "500ns"},
		{2500, "2.500µs"},
		{3 * Millisecond, "3.000ms"},
		{2 * Second, "2.000s"},
	}
	for _, tc := range cases {
		if got := tc.d.String(); got != tc.want {
			t.Errorf("%d.String() = %q, want %q", int64(tc.d), got, tc.want)
		}
	}
}

func TestDurationSeconds(t *testing.T) {
	if got := (1500 * Millisecond).Seconds(); got != 1.5 {
		t.Fatalf("Seconds = %v, want 1.5", got)
	}
}

// Property: events always fire in (deadline, insertion) order regardless of
// insertion order.
func TestEventOrderProperty(t *testing.T) {
	f := func(deadlines []uint16) bool {
		if len(deadlines) == 0 {
			return true
		}
		c := NewClock()
		type rec struct {
			at  Time
			seq int
		}
		var fired []rec
		for i, d := range deadlines {
			at := Time(d)
			i := i
			c.ScheduleAt(at, func() { fired = append(fired, rec{at, i}) })
		}
		c.Advance(Duration(1 << 20))
		if len(fired) != len(deadlines) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i].at < fired[i-1].at {
				return false
			}
			if fired[i].at == fired[i-1].at && fired[i].seq < fired[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the heap never loses events.
func TestHeapConservationProperty(t *testing.T) {
	f := func(deadlines []uint8) bool {
		c := NewClock()
		n := 0
		for _, d := range deadlines {
			c.ScheduleAt(Time(d), func() { n++ })
		}
		c.Drain()
		return n == len(deadlines)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
