package machine

import (
	"multiclock/internal/mem"
	"multiclock/internal/sim"
)

// Telemetry receives machine-level timing telemetry that the event-shaped
// Observer interface cannot carry: latencies, migration costs, daemon pass
// work, and policy queue depths. All methods run synchronously on the
// simulation thread and must not advance virtual time — telemetry is free
// on the virtual timeline by construction.
type Telemetry interface {
	// AccessLatency reports the device-level cost of one application
	// access that reached the memory system (cache-filtered accesses are
	// not reported).
	AccessLatency(tier mem.Tier, write bool, lat sim.Duration, now sim.Time)
	// Migration reports one successful migration and its daemon-side copy
	// cost.
	Migration(from, to mem.NodeID, pages int, cost sim.Duration, now sim.Time)
	// DaemonPass reports one completed daemon wakeup and the raw
	// (pre-interference) daemon-side work it charged.
	DaemonPass(name string, work sim.Duration, now sim.Time)
	// QueueDepth reports the promotion-candidate queue length a scanning
	// pass found (e.g. the promote-list depth per kpromoted wakeup).
	QueueDepth(depth int, now sim.Time)
}

// obsSlot wraps one attached observer so detach can identify it without
// comparing Observer interface values (which may hold uncomparable types).
type obsSlot struct {
	o Observer
}

// Attach registers an observer; every attached observer receives every
// event, in attach order. The returned detach function removes exactly this
// attachment and is idempotent. Attaching nil is a no-op.
func (m *Machine) Attach(o Observer) (detach func()) {
	if o == nil {
		return func() {}
	}
	slot := &obsSlot{o: o}
	m.observers = append(m.observers, slot)
	m.rebuildObserver()
	return func() {
		for i, s := range m.observers {
			if s == slot {
				m.observers = append(m.observers[:i:i], m.observers[i+1:]...)
				m.rebuildObserver()
				return
			}
		}
	}
}

// rebuildObserver recompiles the fan-out target the hot path dispatches to:
// nil with no observers (the proven no-op configuration), the observer
// itself with one, a fan-out list otherwise.
func (m *Machine) rebuildObserver() {
	switch len(m.observers) {
	case 0:
		m.observer = nil
	case 1:
		m.observer = m.observers[0].o
	default:
		fo := make(multiObserver, len(m.observers))
		for i, s := range m.observers {
			fo[i] = s.o
		}
		m.observer = fo
	}
}

// multiObserver fans events out to several observers in attach order.
type multiObserver []Observer

// OnAccess implements Observer.
func (mo multiObserver) OnAccess(pg *mem.Page, write bool, now sim.Time) {
	for _, o := range mo {
		o.OnAccess(pg, write, now)
	}
}

// OnMigrate implements Observer.
func (mo multiObserver) OnMigrate(pg *mem.Page, from, to mem.NodeID, now sim.Time) {
	for _, o := range mo {
		o.OnMigrate(pg, from, to, now)
	}
}

// OnFault implements Observer.
func (mo multiObserver) OnFault(pg *mem.Page, hint bool, now sim.Time) {
	for _, o := range mo {
		o.OnFault(pg, hint, now)
	}
}

// SetMetrics installs (or, with nil, removes) the telemetry sink and the
// daemon-pass hook that feeds it. With no sink installed the machine runs
// exactly as before the telemetry layer existed.
func (m *Machine) SetMetrics(t Telemetry) {
	m.Metrics = t
	if t != nil {
		m.Clock.Hook = m
	} else {
		m.Clock.Hook = nil
	}
}

// DaemonPass implements sim.PassHook: it brackets one daemon wakeup and
// reports the raw daemon-side work charged during the body (scanning,
// page copies, swap writeback) to the telemetry sink.
func (m *Machine) DaemonPass(d *sim.Daemon, run func()) {
	start := m.daemonWork
	run()
	if m.Metrics != nil {
		m.Metrics.DaemonPass(d.Name, m.daemonWork-start, m.Clock.Now())
	}
}
