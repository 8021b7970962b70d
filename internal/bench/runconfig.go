package bench

import (
	"fmt"

	"multiclock/internal/fault"
	"multiclock/internal/kvstore"
	"multiclock/internal/lifecycle"
	"multiclock/internal/machine"
	"multiclock/internal/mem"
	"multiclock/internal/metrics"
	"multiclock/internal/sim"
	"multiclock/internal/slo"
	"multiclock/internal/timeseries"
	"multiclock/internal/ycsb"
)

// RunConfig is the one description of a simulated run, from flags to
// machine: which policy on which memory hierarchy under which seed and fault
// campaign, the YCSB recipe driven against it, and the instrumentation that
// rides its metrics export. Every machine mcsim's runs, its experiments and
// the snapshot layer build comes from a RunConfig, so equal configs are
// equal machines by construction. A RunConfig without Sinks is also the
// serialisable recipe of a checkpointable Session: rebuilding from an equal
// config and restoring the snapshot sections yields an identical system.
type RunConfig struct {
	// Policy is a NewPolicy system name.
	Policy string
	// Workloads is the run order by YCSB workload name (e.g. ["A"] or the
	// paper sequence). The load phase always runs first.
	Workloads []string
	// Records is the load-phase record count; Ops is per workload.
	Records int64
	Ops     int64
	// DRAMPages and PMPages size the two memory nodes.
	DRAMPages int
	PMPages   int
	// Tiers, when non-empty, replaces the two-node machine with this
	// -tiers hierarchy spec (mem.ParseTopology syntax). The spec
	// travels in the snapshot config section, so a restored session
	// rebuilds the same hierarchy.
	Tiers string
	// Interval is the policy scan interval (0 = DefaultScanInterval).
	Interval sim.Duration
	// Seed drives the machine; the YCSB client derives its stream from it.
	Seed uint64
	// Chaos enables deterministic fault injection (zero value = off).
	Chaos fault.Config
	// Metrics collects a telemetry registry (which snapshots with a
	// session); TraceEvents sizes its event ring.
	Metrics     bool
	TraceEvents int
	// Sinks are the further observability layers of an instrumented run.
	// Their state cannot be serialised, so a Session carrying them refuses
	// Capture and Fingerprint.
	Sinks
}

// SoakConfig is the name the snapshot harness and benchmarks/ know the run
// description by.
type SoakConfig = RunConfig

// Sinks selects the observability layers attached on top of a machine's
// metrics collector. Each observes passively and surfaces as a section of
// the run's metrics export.
type Sinks struct {
	// Series, when positive, samples per-node occupancy and windowed vmstat
	// deltas on this virtual-time period.
	Series sim.Duration
	// Lifecycle, when positive, traces per-page Fig. 4 spans with this
	// deterministic sampling modulus (1 traces every page).
	Lifecycle uint64
	// SLO, when non-nil, evaluates these latency objectives on the virtual
	// clock against the collector's histograms.
	SLO *slo.Spec
	// Trace additionally records what only the Perfetto trace export
	// consumes: the node→tier topology and the injected-fault window log.
	Trace bool
}

// Attach installs c as m's telemetry sink and observer, starts the layers s
// selects, and returns the function that adds their sections to c's run
// export once the machine has quiesced. The order is fixed: the export
// goldens were captured with it.
func (s Sinks) Attach(m *machine.Machine, c *metrics.Collector) (fill func(*metrics.RunExport)) {
	m.SetMetrics(c.Bind(m))
	m.Attach(c)
	var sampler *timeseries.Sampler
	if s.Series > 0 {
		sampler = timeseries.New(m, s.Series, 0)
	}
	var tracer *lifecycle.Tracer
	if s.Lifecycle > 0 {
		tracer = lifecycle.New(lifecycle.Config{SampleMod: s.Lifecycle}).Bind(m)
	}
	var engine *slo.Engine
	if s.SLO != nil {
		engine = slo.New(m.Clock, c.Registry(), s.SLO, 0)
	}
	if s.Trace {
		m.Faults.EnableWindowLog(0)
	}
	return func(r *metrics.RunExport) {
		if sampler != nil {
			r.Series = sampler.Export()
		}
		if tracer != nil {
			r.Lifecycle = tracer.Export()
		}
		if engine != nil {
			r.SLO = engine.Export()
		}
		if s.Trace {
			// Tier labels and injected-fault windows only matter to the
			// trace renderer, so they change export bytes only on request.
			r.Topology = metrics.TopologyOf(m)
			r.Faults = metrics.FaultsOf(m)
		}
	}
}

// Attach instruments m per the config: nil and no work without Metrics,
// else a collector over a fresh registry plus the configured sinks.
func (rc RunConfig) Attach(m *machine.Machine) (*metrics.Collector, func(*metrics.RunExport)) {
	if !rc.Metrics {
		return nil, nil
	}
	c := metrics.NewCollector(metrics.NewRegistry(rc.TraceEvents))
	return c, rc.Sinks.Attach(m, c)
}

// Machine builds the run's machine under the named policy.
func (rc RunConfig) Machine() (*machine.Machine, error) {
	p, err := NewPolicy(rc.Policy, rc.Interval)
	if err != nil {
		return nil, err
	}
	return rc.MachineWith(p)
}

// MachineWith builds the run's machine around an already constructed policy
// (a custom-configured MULTI-CLOCK, say) with the evaluation's per-op CPU
// cost.
func (rc RunConfig) MachineWith(p machine.Policy) (*machine.Machine, error) {
	cfg := machine.DefaultConfig()
	cfg.Mem.DRAMNodes, cfg.Mem.PMNodes = []int{rc.DRAMPages}, []int{rc.PMPages}
	cfg.Seed, cfg.OpCost, cfg.Faults = rc.Seed, machine.EvaluationOpCost, rc.Chaos
	if rc.Tiers != "" {
		top, err := mem.ParseTopology(rc.Tiers)
		if err != nil {
			return nil, fmt.Errorf("bench: tier spec: %w", err)
		}
		cfg.Mem.Topology = &top
	} else if rc.DRAMPages <= 0 || rc.PMPages <= 0 {
		return nil, fmt.Errorf("bench: a two-node machine needs positive DRAM and PM pages, got %d/%d", rc.DRAMPages, rc.PMPages)
	}
	return machine.New(cfg, p), nil
}

// NewStore builds the memcached-like store sized for about items records
// with the evaluation's item-access cost model; huge backs the item arena
// with transparent huge pages.
func NewStore(m *machine.Machine, items int, huge bool) *kvstore.Store {
	cfg := kvstore.DefaultConfig(items)
	cfg.ItemTouches = 8
	cfg.HugeArena = huge
	return kvstore.New(m, cfg)
}

// newYCSB builds the evaluation store and a YCSB client over it whose key
// stream is drawn from seed.
func newYCSB(m *machine.Machine, records int64, seed uint64, huge bool) (*kvstore.Store, *ycsb.Client) {
	store := NewStore(m, int(records), huge)
	cfg := ycsb.DefaultClientConfig(records)
	cfg.Seed = seed
	return store, ycsb.NewClient(m, store, cfg)
}

// NewYCSB builds the run's store and client on m. The client's key stream is
// derived from the run seed, decorrelated from the machine's own stream.
func (rc RunConfig) NewYCSB(m *machine.Machine) (*kvstore.Store, *ycsb.Client) {
	return newYCSB(m, rc.Records, rc.Seed^0x9c5b, false)
}
