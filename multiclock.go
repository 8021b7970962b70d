// Package multiclock is a library reproduction of "MULTI-CLOCK: Dynamic
// Tiering for Hybrid Memory Systems" (HPCA 2022): an execution-driven
// simulator of a DRAM + persistent-memory machine, the MULTI-CLOCK tiering
// policy (per-tier CLOCK aging with a recency+frequency promote list, a
// kpromoted promotion daemon and watermark-driven demotion), the baselines
// it is evaluated against (static tiering, Nimble's recency-only selection,
// AutoTiering-CPM/OPM, PM Memory-mode), and the paper's workloads (YCSB on
// a memcached-like store, the GAPBS graph kernels).
//
// This package is the public facade. Typical use:
//
//	sys := multiclock.NewSystem(multiclock.Config{Policy: multiclock.PolicyMultiClock})
//	store := sys.NewKVStore(20000)
//	client := sys.NewYCSB(store, 20000)
//	client.Load()
//	res := client.Run(multiclock.WorkloadA, 500000)
//	fmt.Println(res.Throughput)
//
// The full evaluation harness is exposed through RunExperiment, and the
// subsystem packages under internal/ carry the implementation.
package multiclock

import (
	"fmt"
	"strings"

	"multiclock/internal/bench"
	"multiclock/internal/core"
	"multiclock/internal/fault"
	"multiclock/internal/graph"
	"multiclock/internal/kvstore"
	"multiclock/internal/machine"
	"multiclock/internal/mem"
	"multiclock/internal/metrics"
	"multiclock/internal/pagecache"
	"multiclock/internal/pagetable"
	"multiclock/internal/sim"
	"multiclock/internal/ycsb"
)

// Policy selects the tiering system a machine runs.
type Policy string

// The available tiering policies (§V of the paper).
const (
	PolicyStatic     Policy = "static"
	PolicyMultiClock Policy = "multiclock"
	PolicyNimble     Policy = "nimble"
	PolicyATCPM      Policy = "at-cpm"
	PolicyATOPM      Policy = "at-opm"
	PolicyMemoryMode Policy = "memory-mode"
	// PolicyThermostat is the huge-page-region baseline (Table I's
	// Thermostat row, reimplemented — extension).
	PolicyThermostat Policy = "thermostat"
	// PolicyAMPLFU is AMP's exact-frequency selector (extension).
	PolicyAMPLFU Policy = "amp-lfu"
	// PolicyAMPLRU is AMP's exact-recency selector (extension).
	PolicyAMPLRU Policy = "amp-lru"
	// PolicyAMPRandom is AMP's random selector, the profiling-cost control
	// (extension).
	PolicyAMPRandom Policy = "amp-random"
	// PolicyNomad is Nomad-style non-exclusive tiering: promotion keeps a
	// PM shadow copy so clean pages demote for free (extension).
	PolicyNomad Policy = "nomad"
	// PolicyS3FIFO selects promotion candidates with S3-FIFO's
	// small/main/ghost queues instead of the CLOCK promote ladder
	// (extension).
	PolicyS3FIFO Policy = "s3fifo"
	// PolicyMultiClockGated is MULTI-CLOCK with a TierBPF-style migration
	// bandwidth admission gate in front of kpromoted (extension).
	PolicyMultiClockGated Policy = "multiclock-gated"
	// PolicyNimbleGated is the Nimble baseline behind the same admission
	// gate (extension).
	PolicyNimbleGated Policy = "nimble-gated"
)

// Policies lists every selectable policy.
func Policies() []Policy {
	return []Policy{PolicyStatic, PolicyMultiClock, PolicyNimble, PolicyATCPM, PolicyATOPM, PolicyMemoryMode}
}

// ExtensionPolicies lists the additional baselines this reproduction can
// run that the paper could not deploy (§II-D): Thermostat-style region
// tiering, the AMP selector family, and the competitor policies from
// related work (Nomad shadow tiering, S3-FIFO selection, bandwidth-gated
// admission control).
func ExtensionPolicies() []Policy {
	return []Policy{
		PolicyThermostat, PolicyAMPLFU, PolicyAMPLRU, PolicyAMPRandom,
		PolicyNomad, PolicyS3FIFO, PolicyMultiClockGated, PolicyNimbleGated,
	}
}

// ParsePolicy resolves a policy name (as CLIs accept it) to a Policy,
// rejecting unknown names with the valid set — bench's policy table — in
// the error.
func ParsePolicy(s string) (Policy, error) {
	names := bench.PolicyNames()
	for _, name := range names {
		if s == name {
			return Policy(s), nil
		}
	}
	return "", fmt.Errorf("multiclock: unknown policy %q (have %s)", s, strings.Join(names, ", "))
}

// Duration is virtual time in nanoseconds (re-exported from the simulator).
type Duration = sim.Duration

// Virtual time units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Config describes a simulated hybrid-memory system.
type Config struct {
	// DRAMPages and PMPages size the two tiers in 4 KiB frames. Zero
	// picks the defaults (1 Gi-scale ratio 1:4 at simulation scale).
	DRAMPages, PMPages int

	// Tiers optionally replaces the DRAM/PM pair with an explicit N-tier
	// hierarchy (fastest tier first, e.g. dram over cxl over pm with a
	// durable ssd swap tier last), overriding the sizing fields above. A
	// tier backed by several NUMA nodes lists each node's frame count —
	// "dram:64,dram:64,pm:256,pm:256" is the paper's two-socket testbed
	// shape (§V-A). Build one from mem.BuiltinTierSpec or parse the CLI
	// -tiers syntax with mem.ParseTopology, the inverse of its Spec method.
	Tiers *TierTopology

	// Policy selects the tiering system; default PolicyMultiClock.
	Policy Policy

	// ScanInterval is the promotion daemon period (the paper's kpromoted
	// runs every 1 s, §V-E). Zero uses 1 s of virtual time.
	ScanInterval Duration

	// Seed drives all randomness; equal seeds give identical runs.
	Seed uint64

	// OpCost is CPU time charged per workload operation.
	OpCost Duration

	// MultiClock allows overriding the full policy configuration when
	// Policy == PolicyMultiClock; nil uses the paper defaults.
	MultiClock *core.Config

	// Chaos configures deterministic fault injection (pinned-page and
	// target-denied migration failures, allocation storms, PM slowdown
	// windows, daemon overruns). The zero value injects nothing and leaves
	// the simulation bit-for-bit identical to a fault-free build.
	Chaos FaultConfig
}

// TierTopology is an ordered memory hierarchy, fastest tier first
// (re-export of mem.Topology).
type TierTopology = mem.Topology

// TierSpec describes one tier of a TierTopology (re-export).
type TierSpec = mem.TierSpec

// FaultConfig describes a fault-injection campaign (re-export).
type FaultConfig = fault.Config

// System is a running simulated machine plus its tiering policy.
type System struct {
	m   *machine.Machine
	pol machine.Policy
}

// NewSystem builds a machine per cfg with the policy attached and its
// daemons running.
func NewSystem(cfg Config) *System {
	if cfg.Policy == "" {
		cfg.Policy = PolicyMultiClock
	}
	// Interval defaulting lives in bench.NewPolicy (and core.New for the
	// custom-config path): a non-positive ScanInterval becomes the paper's
	// 1 s everywhere, with no facade-local copy of the rule.
	var pol machine.Policy
	if cfg.Policy == PolicyMultiClock && cfg.MultiClock != nil {
		c := *cfg.MultiClock
		if c.ScanInterval <= 0 {
			c.ScanInterval = cfg.ScanInterval
		}
		pol = core.New(c)
	} else {
		p, err := bench.NewPolicy(string(cfg.Policy), cfg.ScanInterval)
		if err != nil {
			panic(fmt.Sprintf("multiclock: %v", err))
		}
		pol = p
	}

	// The facade's own defaults: zero sizing, seed and per-op cost fall
	// back to machine.DefaultConfig rather than the evaluation recipe.
	mc := machine.DefaultConfig()
	mc.Mem.Topology, mc.Faults = cfg.Tiers, cfg.Chaos
	if cfg.DRAMPages > 0 {
		mc.Mem.DRAMNodes = []int{cfg.DRAMPages}
	}
	if cfg.PMPages > 0 {
		mc.Mem.PMNodes = []int{cfg.PMPages}
	}
	if cfg.Seed != 0 {
		mc.Seed = cfg.Seed
	}
	if cfg.OpCost > 0 {
		mc.OpCost = cfg.OpCost
	}
	return &System{m: machine.New(mc, pol), pol: pol}
}

// Machine exposes the underlying simulated machine for advanced use
// (custom workloads, observers, raw accesses).
func (s *System) Machine() *machine.Machine { return s.m }

// PolicyName reports the active policy.
func (s *System) PolicyName() string { return s.pol.Name() }

// Elapsed returns total virtual time.
func (s *System) Elapsed() Duration { return s.m.Elapsed() }

// Counters returns the memory-system event counters.
func (s *System) Counters() *mem.Counters { return &s.m.Mem.Counters }

// DRAMHitRatio reports the fraction of memory accesses served by DRAM.
func (s *System) DRAMHitRatio() float64 { return s.m.Mem.Counters.DRAMHitRatio() }

// CheckInvariants verifies the machine's conservation laws (frame
// accounting, LRU membership, page-table mapping); nil when consistent.
func (s *System) CheckInvariants() error { return s.m.CheckInvariants() }

// Stop halts the policy's daemons (for long-lived processes building many
// systems). Any policy with background work implements machine.Stopper;
// policies without daemons have nothing to stop.
func (s *System) Stop() {
	if st, ok := s.pol.(machine.Stopper); ok {
		st.Stop()
	}
}

// KVStore is the memcached-like back-end (re-export).
type KVStore = kvstore.Store

// NewKVStore creates a store sized for about items records, with the
// evaluation's item-access cost model.
func (s *System) NewKVStore(items int) *KVStore {
	return bench.NewStore(s.m, items, false)
}

// YCSB workload types (re-exports).
type (
	// Workload is a YCSB operation mix.
	Workload = ycsb.Workload
	// YCSBClient drives a store with YCSB workloads.
	YCSBClient = ycsb.Client
	// RunResult reports one workload execution.
	RunResult = ycsb.RunResult
)

// The standard YCSB workloads plus the paper's workload W.
var (
	WorkloadA = ycsb.WorkloadA
	WorkloadB = ycsb.WorkloadB
	WorkloadC = ycsb.WorkloadC
	WorkloadD = ycsb.WorkloadD
	WorkloadE = ycsb.WorkloadE
	WorkloadF = ycsb.WorkloadF
	WorkloadW = ycsb.WorkloadW
)

// PaperSequence is the prescribed YCSB execution order (§V-B).
var PaperSequence = ycsb.PaperSequence

// NewYCSB creates a YCSB client over store with records keys.
func (s *System) NewYCSB(store *KVStore, records int64) *YCSBClient {
	return ycsb.NewClient(s.m, store, ycsb.DefaultClientConfig(records))
}

// Graph types (re-exports).
type (
	// Graph is a CSR graph in simulated memory with the GAPBS kernels as
	// methods.
	Graph = graph.Graph
	// GraphConfig shapes a synthetic graph.
	GraphConfig = graph.GenConfig
)

// NewGraph generates and loads a synthetic graph on the system.
func (s *System) NewGraph(cfg GraphConfig) *Graph {
	return graph.Generate(s.m, cfg)
}

// Observer re-exports for telemetry.
type (
	// Observer receives page-level simulation events (accesses, migrations,
	// faults). Attach any number of observers to a System; they are invoked
	// in attach order and never advance virtual time.
	Observer = machine.Observer
	// PromotionTracker measures promotions and re-access (Figs. 8–9).
	PromotionTracker = bench.PromotionTracker
	// Metrics is the virtual-clock-native metrics collector: counters,
	// gauges, log-bucketed histograms and an optional structured event
	// trace, with deterministic JSON/CSV export.
	Metrics = metrics.Collector
	// MetricsRun is one labeled metrics snapshot (Metrics.Run), the unit
	// ExportMetricsJSON serializes.
	MetricsRun = metrics.RunExport
)

// Attach registers an observer alongside any already attached and returns
// a function that detaches exactly it. Multiple observers (a
// PromotionTracker, a Metrics collector, ...) coexist; each sees every
// event.
func (s *System) Attach(o Observer) (detach func()) {
	return s.m.Attach(o)
}

// NewPromotionTracker builds a promotion tracker with the given window,
// bound to this system but not yet attached; pass it to Attach.
func (s *System) NewPromotionTracker(window Duration) *PromotionTracker {
	return bench.NewPromotionTracker(s.m, window)
}

// EnableMetrics installs a metrics collector on the system and returns it.
// traceEvents sizes the structured event ring (0 disables event tracing;
// counters and histograms still record). The collector observes passively —
// an instrumented run's simulation timeline is bit-for-bit identical to an
// uninstrumented one. Export with ExportMetricsJSON or the collector's Run
// snapshot. The sections layered on the collector (time series, lifecycle
// spans, SLOs, the Perfetto timeline) are selected by mcsim's flags
// -series, -lifecycle, -slo and -trace-out.
func (s *System) EnableMetrics(traceEvents int) *Metrics {
	c, _ := bench.RunConfig{Metrics: true, TraceEvents: traceEvents}.Attach(s.m)
	return c
}

// ExportMetricsJSON renders one or more labeled metric snapshots (from
// Metrics.Run) as the canonical deterministic JSON document.
func ExportMetricsJSON(runs ...metrics.RunExport) ([]byte, error) {
	return metrics.ExportJSON(runs...)
}

// File-backed memory (re-exports): files whose cached pages ride the file
// LRU lists through the supervised access path.
type (
	// FileCache is a set of simulated files sharing a page cache.
	FileCache = pagecache.Cache
	// File is one simulated file.
	File = pagecache.File
)

// NewFileCache creates a page cache on the system.
func (s *System) NewFileCache() *FileCache { return pagecache.New(s.m) }

// VPN re-exports the virtual page number type for custom workloads.
type VPN = pagetable.VPN

// Experiments lists the regenerable tables and figures.
func Experiments() []string { return bench.Names() }

// RunExperiment regenerates one of the paper's tables or figures ("fig5",
// "fig10", "table1", "ablation-ratio", ...) and returns its rendering.
// Quick mode compresses the run ~10× further for CI-speed executions.
func RunExperiment(name string, quick bool) (string, error) {
	return bench.Run(name, bench.Options{Quick: quick, Seed: 1})
}
