package metrics

import (
	"multiclock/internal/machine"
	"multiclock/internal/mem"
	"multiclock/internal/sim"
)

// Instrument names the collector populates. They are part of the export
// schema: the validator requires the histogram names on every run.
const (
	HistMigrationLatency = "migration_latency_ns"
	HistDaemonPassWork   = "daemon_pass_work_ns"
	HistPromoteQueue     = "promote_queue_depth"
)

// Collector adapts one machine's telemetry streams onto a Registry. It
// implements both machine.Observer (attach through the machine's observer
// registry for fault events) and machine.Telemetry (install with
// Machine.SetMetrics for latencies, migrations, daemon passes and queue
// depths). All recording is passive: no method advances virtual time.
type Collector struct {
	reg *Registry

	tierOf func(mem.NodeID) mem.Tier
	vmstat *mem.Counters
	now    func() sim.Time

	migLat     *Histogram
	passWork   *Histogram
	queueDepth *Histogram
	accessLat  [][2]*Histogram

	queueGauge *Gauge

	promotes   *Counter
	demotes    *Counter
	passes     *Counter
	minorFault *Counter
	hintFault  *Counter
}

// NewCollector builds a collector over reg, pre-resolving every instrument
// so the hot-path methods do no map lookups (the per-tier access latencies
// once Bind knows the tiers). Call Bind before wiring it to a machine.
func NewCollector(reg *Registry) *Collector {
	return &Collector{
		reg:        reg,
		migLat:     reg.Histogram(HistMigrationLatency),
		passWork:   reg.Histogram(HistDaemonPassWork),
		queueDepth: reg.Histogram(HistPromoteQueue),
		queueGauge: reg.Gauge(HistPromoteQueue),
		promotes:   reg.Counter("promotions"),
		demotes:    reg.Counter("demotions"),
		passes:     reg.Counter("daemon_passes"),
		minorFault: reg.Counter("minor_faults"),
		hintFault:  reg.Counter("hint_faults"),
	}
}

// Registry returns the collector's registry.
func (c *Collector) Registry() *Registry { return c.reg }

// Bind supplies the machine context the collector classifies events with
// (node→tier mapping, vmstat counters, clock) and returns the collector.
func (c *Collector) Bind(m *machine.Machine) *Collector {
	c.tierOf = func(id mem.NodeID) mem.Tier { return m.Mem.Nodes[id].Tier }
	c.vmstat = &m.Mem.Counters
	c.now = m.Clock.Now
	// Resolve one read/write histogram pair per tier of the machine's
	// topology ("access_latency_<tier>_read_ns"): the only place these
	// names are made, so an export lists exactly the machine's tiers.
	tiers := m.Mem.Top.Tiers
	c.accessLat = make([][2]*Histogram, len(tiers))
	for i, ts := range tiers {
		c.accessLat[i][0] = c.reg.Histogram("access_latency_" + ts.Name + "_read_ns")
		c.accessLat[i][1] = c.reg.Histogram("access_latency_" + ts.Name + "_write_ns")
	}
	return c
}

// AccessLatency implements machine.Telemetry.
func (c *Collector) AccessLatency(tier mem.Tier, write bool, lat sim.Duration, now sim.Time) {
	w := 0
	if write {
		w = 1
	}
	if int(tier) >= len(c.accessLat) {
		return
	}
	if h := c.accessLat[tier][w]; h != nil {
		h.Observe(int64(lat))
	}
}

// Migration implements machine.Telemetry: histogram the copy cost, count
// and trace the direction.
func (c *Collector) Migration(from, to mem.NodeID, pages int, cost sim.Duration, now sim.Time) {
	c.migLat.Observe(int64(cost))
	kind := EventDemote
	if c.tierOf != nil && c.tierOf(to) < c.tierOf(from) {
		kind = EventPromote
	}
	if kind == EventPromote {
		c.promotes.Inc()
	} else {
		c.demotes.Inc()
	}
	if t := c.reg.events; t != nil {
		t.Add(Event{At: now, Kind: kind, From: int(from), To: int(to), Pages: pages})
	}
}

// DaemonPass implements machine.Telemetry.
func (c *Collector) DaemonPass(name string, work sim.Duration, now sim.Time) {
	c.passes.Inc()
	c.passWork.Observe(int64(work))
	if t := c.reg.events; t != nil {
		t.Add(Event{At: now, Kind: EventScan, From: -1, To: -1, Name: name, Work: work})
	}
}

// QueueDepth implements machine.Telemetry: the promote queue's depth, as
// histogram and gauge.
func (c *Collector) QueueDepth(depth int, now sim.Time) {
	c.queueDepth.ObserveInt(depth)
	c.queueGauge.Set(int64(depth))
}

// OnAccess implements machine.Observer. Access accounting arrives through
// AccessLatency (with cost attached), so this is a no-op.
func (c *Collector) OnAccess(pg *mem.Page, write bool, now sim.Time) {}

// OnMigrate implements machine.Observer. Migration accounting arrives
// through the Telemetry side (with cost attached), so this is a no-op.
func (c *Collector) OnMigrate(pg *mem.Page, from, to mem.NodeID, now sim.Time) {}

// OnFault implements machine.Observer: count and trace page faults.
func (c *Collector) OnFault(pg *mem.Page, hint bool, now sim.Time) {
	kind := EventFault
	if hint {
		kind = EventHintFault
		c.hintFault.Inc()
	} else {
		c.minorFault.Inc()
	}
	if t := c.reg.events; t != nil {
		t.Add(Event{At: now, Kind: kind, From: -1, To: -1, VA: pg.VA})
	}
}

// compile-time interface checks
var (
	_ machine.Observer  = (*Collector)(nil)
	_ machine.Telemetry = (*Collector)(nil)
)
