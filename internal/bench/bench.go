// Package bench is the evaluation harness: one runner per table and figure
// of the paper (§II and §V), each regenerating the corresponding rows or
// series on the simulated machine. mcsim -exp and the repository's
// testing.B benchmarks both drive this package.
//
// Time scaling: the paper's runs last minutes of wall-clock per workload
// with a 1-second kpromoted interval — hundreds of scan periods per
// workload. Simulated runs compress that: a few virtual seconds carry the
// whole run, so the daemon interval playing the role of the paper's 1 s is
// 10 ms here (the interval the Fig. 10 sweep confirms as the operating
// optimum at this compression). The derived telemetry window stays at 20
// intervals (≙ the paper's 20 s). Full mode differs from quick mode in op
// counts, footprints and graph sizes — ~10× more scan periods per
// workload — not in the interval itself. The shapes under comparison (who
// wins, by what factor, where crossovers sit) depend on periods elapsed,
// not absolute seconds; EXPERIMENTS.md records the mapping.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"multiclock/internal/core"
	"multiclock/internal/fault"
	"multiclock/internal/machine"
	"multiclock/internal/mem"
	"multiclock/internal/metrics"
	"multiclock/internal/policy"
	"multiclock/internal/runner"
	"multiclock/internal/sim"
)

// DefaultScanInterval is the promotion-daemon period when none is given:
// the paper's kpromoted runs every 1 s (§V-E). This is the single home of
// that default — the facade and every experiment defer to it.
const DefaultScanInterval = 1 * sim.Second

// Options selects the run scale.
type Options struct {
	// Quick shrinks op counts and daemon intervals ~10× for CI-speed
	// runs; Full reproduces the paper-scale interval of 1 s.
	Quick bool
	Seed  uint64
	// Parallel is the maximum number of experiments, and of simulated
	// machines within each, in flight at once. 0 and 1 both mean
	// sequential; negative means GOMAXPROCS. Each cell (one system's run
	// of one experiment) is an independent single-threaded machine, so
	// output is byte-identical at every setting: cells are scheduled
	// across goroutines but their results reassemble in presentation order.
	Parallel int
	// Chaos configures deterministic fault injection on every machine the
	// experiment builds. The zero value disables injection entirely and
	// reproduces fault-free output bit for bit.
	Chaos fault.Config
	// Metrics, when non-nil, collects per-machine telemetry from the
	// experiments that support it (the YCSB family: figs. 5 and 7–10 and
	// the bakeoff) into labeled registries for deterministic export. Nil
	// collects nothing and leaves every simulation untouched.
	Metrics *metrics.Pool
	// Sinks adds the observability layers it selects to every instrumented
	// machine; their sections ride the run's metrics export. Requires
	// Metrics.
	Sinks
	// Tiers, when non-empty, replaces the default two-tier machine with the
	// hierarchy this -tiers spec describes (mem.ParseTopology syntax,
	// e.g. "dram:1024,cxl:2048,pm:8192") on every machine the experiments
	// build. Callers validate the spec up front; building a machine panics
	// on a bad one.
	Tiers string

	// cache holds the cells of one Stream call. Stream makes a fresh one
	// unless the caller (a test sharing cells across tests) brings its own.
	cache *cellCache
}

// workers resolves Parallel for runner.Map.
func (o Options) workers() int {
	if o.Parallel == 0 {
		return 1
	}
	return o.Parallel
}

// SystemNames lists the tiered systems compared in Figs. 5 and 6, in
// presentation order.
var SystemNames = []string{"static", "multiclock", "nimble", "at-cpm", "at-opm"}

// MemModeNames lists the Fig. 7 comparison set.
var MemModeNames = []string{"static", "multiclock", "memory-mode"}

// checkpointable is what every entry of the policy table builds: a policy
// that is also a machine.Checkpointer, so "every policy can be
// checkpointed" is checked by the compiler, not refused at run time.
type checkpointable interface {
	machine.Policy
	machine.Checkpointer
}

// policyTable is the one ordered list of systems: NewPolicy, PolicyNames,
// the facade's ParsePolicy, mcsim's -policy help and the test matrices all
// derive from it. Each constructor takes the daemon interval.
var policyTable = []struct {
	name  string
	build func(interval sim.Duration) checkpointable
}{
	{"static", func(sim.Duration) checkpointable { return policy.NewStatic() }},
	{"multiclock", func(d sim.Duration) checkpointable { return newMultiClock(d, nil) }},
	{"nimble", func(d sim.Duration) checkpointable { return policy.NewNimble(d, nil) }},
	{"at-cpm", func(d sim.Duration) checkpointable { return policy.NewAutoTiering(policy.CPM, d) }},
	{"at-opm", func(d sim.Duration) checkpointable { return policy.NewAutoTiering(policy.OPM, d) }},
	{"memory-mode", func(sim.Duration) checkpointable { return policy.NewMemoryMode() }},
	{"thermostat", func(d sim.Duration) checkpointable { return policy.NewThermostat(d) }},
	{"amp-lfu", func(d sim.Duration) checkpointable { return policy.NewAMP(policy.AMPLFU, d) }},
	{"amp-lru", func(d sim.Duration) checkpointable { return policy.NewAMP(policy.AMPLRU, d) }},
	{"amp-random", func(d sim.Duration) checkpointable { return policy.NewAMP(policy.AMPRandom, d) }},
	{"nomad", func(d sim.Duration) checkpointable { return policy.NewNomad(d) }},
	{"s3fifo", func(d sim.Duration) checkpointable { return policy.NewS3FIFO(d) }},
	{"multiclock-gated", func(d sim.Duration) checkpointable { return newMultiClock(d, policy.NewBandwidthGate()) }},
	{"nimble-gated", func(d sim.Duration) checkpointable { return policy.NewNimble(d, policy.NewBandwidthGate()) }},
}

func newMultiClock(d sim.Duration, gate machine.PromotionGate) *core.MultiClock {
	cfg := core.DefaultConfig()
	cfg.ScanInterval, cfg.Gate = d, gate
	return core.New(cfg)
}

// PolicyNames lists every system NewPolicy builds, in table order.
func PolicyNames() []string {
	names := make([]string, len(policyTable))
	for i, e := range policyTable {
		names[i] = e.name
	}
	return names
}

// NewPolicy constructs a policy by name with the given daemon interval;
// a non-positive interval means DefaultScanInterval.
func NewPolicy(name string, interval sim.Duration) (machine.Policy, error) {
	if interval <= 0 {
		interval = DefaultScanInterval
	}
	for _, e := range policyTable {
		if e.name == name {
			return e.build(interval), nil
		}
	}
	return nil, fmt.Errorf("bench: unknown system %q", name)
}

// scale is the recipe one Options implies: the RunConfig template every
// cell starts from, plus what a recipe cannot say.
type scale struct {
	// RunConfig is the cell template: sizing, interval, seed, fault
	// campaign, hierarchy and sinks. A cell names its system (and the
	// interval sweep its interval); nothing else is restated per cell.
	RunConfig
	// Window is the telemetry window (the paper's 20 s = 20 intervals).
	Window sim.Duration
	Graph  graphScale
	// Pool and Prefix thread the Options telemetry pool through to each
	// cell; collectors are claimed under Prefix+cell labels. Both must be
	// set for a cell to instrument itself.
	Pool   *metrics.Pool
	Prefix string
}

// graphScale sizes the GAPBS experiments. Their memory is sized separately
// so the CSR exceeds DRAM like the paper's graphs do.
type graphScale struct {
	Vertices, Degree              int
	DRAMPages, PMPages            int
	PRIters, BFSTrials, BCSources int
}

// machineWith builds a machine of the template around p. Experiments
// validate their tier spec up front, so a failure here is a bug.
func (sc scale) machineWith(p machine.Policy) *machine.Machine {
	m, err := sc.MachineWith(p)
	if err != nil {
		panic(err)
	}
	return m
}

// instrument claims a collector labeled label from pool and attaches it and
// the sinks to m. The sinks export at pool-snapshot time, after the
// machine has quiesced. No-op (and no allocation) without a pool.
func instrument(pool *metrics.Pool, sinks Sinks, m *machine.Machine, label string) {
	if pool == nil {
		return
	}
	pool.Decorate(label, sinks.Attach(m, pool.Collector(label)))
}

// scale builds the template once: full-scale sizing, shrunk ~10× in op
// counts, footprints and graph sizes under Quick.
func (o Options) scale() scale {
	sc := scale{
		RunConfig: RunConfig{
			Records: 24_000, Ops: 1_200_000,
			// PM holds the initial footprint plus workload D's inserted
			// records (~15k pages at full scale) without touching swap.
			DRAMPages: 1024, PMPages: 24_576, Tiers: o.Tiers,
			Interval: 10 * sim.Millisecond, Seed: o.Seed, Chaos: o.Chaos, Sinks: o.Sinks,
		},
		Window: 200 * sim.Millisecond,
		Graph: graphScale{Vertices: 96_000, Degree: 8, DRAMPages: 1024, PMPages: 16_384,
			PRIters: 5, BFSTrials: 3, BCSources: 8},
		Pool: o.Metrics,
	}
	if o.Quick {
		sc.Records, sc.Ops, sc.PMPages = 16_000, 120_000, 8192
		sc.Graph = graphScale{Vertices: 48_000, Degree: 6, DRAMPages: 512, PMPages: 8192,
			PRIters: 3, BFSTrials: 2, BCSources: 6}
	}
	return sc
}

// stopDaemons halts a policy's daemons so abandoned machines cost nothing.
func stopDaemons(p machine.Policy) {
	if st, ok := p.(machine.Stopper); ok {
		st.Stop()
	}
}

// experiments maps experiment ids to their runners. A runner that shares
// runs with others builds them as cells (Options.run); figs. 1 and 2, table1
// and ablation-write repeat no run and drive their own machines.
var experiments = map[string]func(Options) string{
	"fig1":                 fig1,
	"fig2":                 fig2,
	"table1":               func(Options) string { return Table1() },
	"fig5":                 fig5,
	"fig6":                 fig6,
	"fig7":                 fig7,
	"fig8":                 fig8,
	"fig9":                 fig9,
	"fig10":                fig10,
	"ablation-promote":     ablationPromoteList,
	"ablation-batch":       ablationScanBatch,
	"ablation-ratio":       ablationDRAMRatio,
	"ablation-write":       ablationWriteAware,
	"ablation-amp":         ablationAMP,
	"ablation-granularity": ablationGranularity,
	"ablation-thp":         ablationTHP,
	"ablation-multiproc":   ablationMultiProc,
	"bakeoff":              bakeoff,
}

// Names returns the experiment ids in sorted order.
func Names() []string {
	out := make([]string, 0, len(experiments))
	for k := range experiments {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Stream runs the named experiments through one cell cache, so a run that
// several of them read is computed once. The experiments share opt's
// worker budget with their cells. emit is called on the caller's goroutine
// in name order as each experiment finishes; progress gets one line per
// experiment as it finishes (nil silences it). A failing experiment, an
// unknown name included, reports its error and the rest still run.
// "table2" renders the inventory of the module above the working directory.
func Stream(names []string, opt Options, progress io.Writer, emit func(i int, r runner.TaskResult[string])) {
	if opt.cache == nil {
		opt.cache = new(cellCache)
	}
	tasks := make([]runner.Task[string], len(names))
	for i, name := range names {
		tasks[i] = runner.Task[string]{Name: name, Fn: func() (string, error) {
			if name == "table2" {
				return table2()
			}
			fn, ok := experiments[name]
			if !ok {
				return "", fmt.Errorf("bench: unknown experiment %q (have %s)", name, strings.Join(Names(), ", "))
			}
			return fn(opt), nil
		}}
	}
	runner.Stream(opt.workers(), progress, tasks, emit)
}

// Run executes one experiment by id: Stream with a single name.
func Run(name string, opt Options) (out string, err error) {
	Stream([]string{name}, opt, nil, func(_ int, r runner.TaskResult[string]) { out, err = r.Value, r.Err })
	return out, err
}

// Table1 prints the qualitative technique-comparison matrix (paper
// Table I); the properties of our implementations, asserted by the test
// suite, are restated here.
func Table1() string {
	var b strings.Builder
	b.WriteString("Table I — comparison of memory tiering techniques (as implemented here)\n")
	b.WriteString(`
technique   tracking            selection(promo)    demotion   numa  space-ovh  pages
----------  ------------------  ------------------  ---------  ----  ---------  -----
static      n/a                 n/a                 n/a        yes   none       all
nimble      reference bit       recency             recency    no    none       all
at-cpm      software hint fault fault recency       none       yes   none       all
at-opm      software hint fault fault recency       n-bit hist yes   n bits/pg  all
amp-*       full profiling      lru/lfu/random      same       no    cnt/page   all
thermostat  software hint fault region fault rate   cold regio yes   per-region huge
memory-mode hw cache tags       n/a (dram hidden)   n/a        yes   tags       all
multiclock  reference bit       recency+frequency   recency    yes   none       all
`)
	b.WriteString("\nmulticlock key insight: low-overhead recency+frequency via the promote list.\n")
	return b.String()
}

// tierSummary summarizes where accesses landed (used in several reports).
func tierSummary(c *mem.Counters) string {
	return fmt.Sprintf("DRAM-hit=%.1f%% promos=%d demos=%d hintfaults=%d swaps=%d",
		100*c.DRAMHitRatio(), c.Promotions, c.Demotions, c.HintFaults, c.SwapOuts)
}
