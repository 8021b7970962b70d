package sim

import (
	"fmt"
	"slices"
	"testing"
)

// firing is one callback run: an event's id, or -1-i for daemon i, and the
// time the callback saw.
type firing struct {
	id int
	at Time
}

// refEntry is one queued callback of the reference clock.
type refEntry struct {
	at     Time
	seq    uint64
	id     int // event id, or -1-i for a wakeup of daemon i
	killed *bool
}

// refDaemon mirrors a Daemon: its period, whether it is stopped, and the
// kill flag of its queued wakeup.
type refDaemon struct {
	interval Duration
	stopped  bool
	pending  *bool
}

// refClock is the naive clock the property test holds Clock to: one slice
// kept sorted by (deadline, seq), scanned from the front, with cancelled
// entries left in place until they reach it, as in the heap.
type refClock struct {
	now     Time
	seq     uint64
	queue   []refEntry
	daemons []refDaemon
	kill    []*bool // per event id
	log     []firing
}

func (r *refClock) insert(e refEntry) {
	i, _ := slices.BinarySearchFunc(r.queue, e, func(a, b refEntry) int {
		if a.at != b.at {
			return int(a.at - b.at)
		}
		return int(int64(a.seq) - int64(b.seq))
	})
	r.queue = slices.Insert(r.queue, i, e)
}

// schedule mirrors ScheduleAt, clamp included.
func (r *refClock) schedule(at Time) {
	r.seq++
	k := new(bool)
	r.kill = append(r.kill, k)
	r.insert(refEntry{at: max(at, r.now), seq: r.seq, id: len(r.kill) - 1, killed: k})
}

func (r *refClock) arm(i int) {
	d := &r.daemons[i]
	r.seq++
	d.pending = new(bool)
	r.insert(refEntry{at: r.now + Time(d.interval), seq: r.seq, id: -1 - i, killed: d.pending})
}

// run fires every entry due by target (all of them when drain is set).
func (r *refClock) run(target Time, drain bool) {
	for len(r.queue) > 0 && (drain || r.queue[0].at <= target) {
		e := r.queue[0]
		r.queue = r.queue[1:]
		if *e.killed {
			continue
		}
		r.now = e.at
		if e.id >= 0 {
			r.log = append(r.log, firing{e.id, r.now})
			if child, ok := childDelay(e.id); ok {
				r.schedule(r.now + Time(child))
			}
			continue
		}
		i := -1 - e.id
		if r.daemons[i].stopped {
			continue
		}
		r.log = append(r.log, firing{e.id, r.now})
		r.arm(i)
	}
	if !drain {
		r.now = target
	}
}

// childDelay says whether event id schedules another from its own callback,
// and after how long (zero included, so a child can be due at once).
func childDelay(id int) (Duration, bool) { return Duration(id % 7), id%4 == 0 }

// TestCachedDeadlineProperty runs seeded sequences of Schedule, ScheduleAt
// (past deadlines included), Cancel, Daemon.Stop/RestoreState,
// Advance (by a random amount, and exactly onto the next deadline) and Drain
// on a Clock and on refClock. After every step the cached deadline must be
// the heap top's (noEvent for an empty heap), the clock's time and the
// firings so far must equal the reference's, and no callback may see an
// earlier time than the one before it.
func TestCachedDeadlineProperty(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { checkDeadlineSequence(t, seed, 400) })
	}
}

func checkDeadlineSequence(t *testing.T, seed uint64, steps int) {
	rng := NewRNG(seed)
	c := NewClock()
	ref := &refClock{}
	var log []firing
	var events []*Event
	var daemons []*Daemon

	// callback is event id's body; a child it schedules is queued on the
	// reference by refClock.run, not here.
	var callback func(id int) func()
	callback = func(id int) func() {
		return func() {
			log = append(log, firing{id, c.Now()})
			if child, ok := childDelay(id); ok {
				events = append(events, c.ScheduleAt(c.Now()+Time(child), callback(len(events))))
			}
		}
	}
	startDaemon := func(iv Duration) {
		i := len(daemons)
		daemons = append(daemons, c.StartDaemon(fmt.Sprint("d", i), iv, func(now Time) {
			log = append(log, firing{-1 - i, now})
		}))
		ref.daemons = append(ref.daemons, refDaemon{interval: iv})
		ref.arm(i)
	}
	liveDaemons := func() bool {
		for _, d := range ref.daemons {
			if !d.stopped {
				return true
			}
		}
		return false
	}
	stopAll := func() {
		for i, d := range daemons {
			d.Stop()
			if rd := &ref.daemons[i]; !rd.stopped {
				rd.stopped = true
				*rd.pending = true
			}
		}
	}

	startDaemon(Duration(1 + rng.Intn(40)))
	startDaemon(Duration(1 + rng.Intn(40)))
	for step := 0; step <= steps; step++ {
		var op string
		switch k := rng.Intn(16); {
		case step == steps:
			op = "stop all, drain"
			stopAll()
			c.Drain()
			ref.run(0, true)
		case k < 3:
			d := Duration(rng.Intn(60) - 5)
			op = fmt.Sprint("schedule ", d)
			events = append(events, c.Schedule(d, callback(len(events))))
			ref.schedule(ref.now + Time(max(d, 0)))
		case k < 5:
			at := ref.now + Time(rng.Intn(70)-20)
			op = fmt.Sprint("schedule at ", at)
			events = append(events, c.ScheduleAt(at, callback(len(events))))
			ref.schedule(at)
		case k < 7:
			if len(events) == 0 {
				continue
			}
			id := rng.Intn(len(events))
			op = fmt.Sprint("cancel ", id)
			events[id].Cancel()
			*ref.kill[id] = true
		case k == 7:
			i := rng.Intn(len(daemons))
			op = fmt.Sprint("stop daemon ", i)
			daemons[i].Stop()
			if rd := &ref.daemons[i]; !rd.stopped {
				rd.stopped = true
				*rd.pending = true
			}
		case k == 9:
			i := rng.Intn(len(daemons))
			st := daemons[i].State()
			rd := &ref.daemons[i]
			if st.Stopped != rd.stopped {
				t.Fatalf("seed %d step %d: daemon %d stopped=%v, reference %v", seed, step, i, st.Stopped, rd.stopped)
			}
			st.Interval = Duration(1 + rng.Intn(40))
			st.At = c.Now() + Time(rng.Intn(50))
			st.Seq = c.Seq() + 1
			op = fmt.Sprintf("restore daemon %d %+v", i, st)
			if err := daemons[i].RestoreState(st); err != nil {
				t.Fatal(err)
			}
			c.RestoreTime(c.Now(), st.Seq)
			rd.interval = st.Interval
			if !rd.stopped {
				*rd.pending = true
				rd.pending = new(bool)
				ref.insert(refEntry{at: st.At, seq: st.Seq, id: -1 - i, killed: rd.pending})
			}
			ref.seq = st.Seq
		case k == 10:
			if len(daemons) >= 5 {
				continue
			}
			op = "start daemon"
			startDaemon(Duration(1 + rng.Intn(40)))
		case k == 11:
			if len(ref.queue) == 0 {
				continue
			}
			d := Duration(ref.queue[0].at - ref.now)
			op = fmt.Sprint("advance onto the next deadline, ", d)
			c.Advance(d)
			ref.run(ref.now+Time(d), false)
		case k == 12:
			if liveDaemons() {
				continue
			}
			op = "drain"
			c.Drain()
			ref.run(0, true)
		default:
			d := Duration(rng.Intn(60))
			op = fmt.Sprint("advance ", d)
			c.Advance(d)
			ref.run(ref.now+Time(d), false)
		}

		want := noEvent
		if len(c.events) > 0 {
			want = c.events[0].at
		}
		if c.next != want {
			t.Fatalf("seed %d step %d (%s): cached deadline %d, heap top %d", seed, step, op, c.next, want)
		}
		if len(c.events) != len(ref.queue) {
			t.Fatalf("seed %d step %d (%s): %d queued, reference %d", seed, step, op, len(c.events), len(ref.queue))
		}
		if c.Now() != ref.now {
			t.Fatalf("seed %d step %d (%s): clock at %d, reference %d", seed, step, op, c.Now(), ref.now)
		}
		if !slices.Equal(log, ref.log) {
			t.Fatalf("seed %d step %d (%s): fired %v\nreference %v", seed, step, op, log, ref.log)
		}
	}
	for i := 1; i < len(log); i++ {
		if log[i].at < log[i-1].at {
			t.Fatalf("seed %d: time went back from %d to %d", seed, log[i-1].at, log[i].at)
		}
	}
	if len(log) < steps/4 {
		t.Fatalf("seed %d: only %d firings in %d steps", seed, len(log), steps)
	}
}
