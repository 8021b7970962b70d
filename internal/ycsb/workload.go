package ycsb

import (
	"fmt"

	"multiclock/internal/kvstore"
	"multiclock/internal/machine"
	"multiclock/internal/sim"
	"multiclock/internal/stats"
)

// Distribution names a key-choice distribution.
type Distribution int8

const (
	// DistZipfian is scrambled zipfian, YCSB's requestdistribution=zipfian.
	DistZipfian Distribution = iota
	// DistLatest favors recent inserts (workload D).
	DistLatest
	// DistUniform chooses keys uniformly (workload E's scan starts).
	DistUniform
)

// Workload is a YCSB operation mix.
type Workload struct {
	Name string
	// Operation proportions; must sum to 1.
	ReadProp, UpdateProp, InsertProp, RMWProp, ScanProp float64
	Dist                                                Distribution
}

// The six standard workloads and the paper's custom workload W (§V-B).
var (
	// WorkloadA is 50% reads, 50% updates.
	WorkloadA = Workload{Name: "A", ReadProp: 0.5, UpdateProp: 0.5, Dist: DistZipfian}
	// WorkloadB is 95% reads, 5% updates.
	WorkloadB = Workload{Name: "B", ReadProp: 0.95, UpdateProp: 0.05, Dist: DistZipfian}
	// WorkloadC is read-only.
	WorkloadC = Workload{Name: "C", ReadProp: 1, Dist: DistZipfian}
	// WorkloadD reads recent inserts: 95% reads, 5% inserts, latest
	// distribution — the paper's best case for MULTI-CLOCK (§V-C.1).
	WorkloadD = Workload{Name: "D", ReadProp: 0.95, InsertProp: 0.05, Dist: DistLatest}
	// WorkloadE is short range scans, non-operational on memcached.
	WorkloadE = Workload{Name: "E", ScanProp: 0.95, InsertProp: 0.05, Dist: DistUniform}
	// WorkloadF is read-modify-write.
	WorkloadF = Workload{Name: "F", ReadProp: 0.5, RMWProp: 0.5, Dist: DistZipfian}
	// WorkloadW is the paper's custom 100%-write workload.
	WorkloadW = Workload{Name: "W", UpdateProp: 1, Dist: DistZipfian}
)

// PaperSequence is the prescribed execution order: the load phase runs
// once, then A, B, C, F, W, and finally D (because D changes the record
// count), §V-B.
var PaperSequence = []Workload{WorkloadA, WorkloadB, WorkloadC, WorkloadF, WorkloadW, WorkloadD}

// ByName returns the named workload (A–F or W).
func ByName(name string) (Workload, error) {
	for _, w := range []Workload{WorkloadA, WorkloadB, WorkloadC, WorkloadD, WorkloadE, WorkloadF, WorkloadW} {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("ycsb: unknown workload %q", name)
}

// recordSize is bytes per record: YCSB's default of ten 100-byte fields.
const recordSize = 1000

// ClientConfig sizes a benchmark client.
type ClientConfig struct {
	// Records is the load-phase record count.
	Records int64
	// Seed feeds the client's private random stream.
	Seed uint64
}

// DefaultClientConfig returns the standard record count and seed.
func DefaultClientConfig(records int64) ClientConfig {
	return ClientConfig{Records: records, Seed: 42}
}

// Client drives a kvstore with YCSB workloads on a machine's virtual
// timeline.
type Client struct {
	store *kvstore.Store
	m     *machine.Machine
	rng   *sim.RNG
	cfg   ClientConfig

	records int64
	loaded  bool
	// run is the latest run started or restored; its drawer may be ahead
	// of rng (Run.settle).
	run *Run

	// zetan is zeta(zetaItems, ZipfianConstant), kept from the last run's
	// chooser: a pure function of the record count that costs one pow per
	// record to recompute.
	zetaItems int64
	zetan     float64
	// tables serves every zipfian the client makes or restores, so the
	// paper sequence's A, B, C, F and W, or a warm-up and the run after it,
	// build and verify one table between them.
	tables tableCache
}

// NewClient creates a client bound to a store.
func NewClient(m *machine.Machine, store *kvstore.Store, cfg ClientConfig) *Client {
	if cfg.Records <= 0 {
		panic("ycsb: Records must be positive")
	}
	return &Client{store: store, m: m, rng: sim.NewRNG(cfg.Seed), cfg: cfg}
}

// Records returns the current record count (grows under workload D).
func (c *Client) Records() int64 { return c.records }

// Load runs the load phase: inserting Records sequential keys.
func (c *Client) Load() {
	for i := int64(0); i < c.cfg.Records; i++ {
		c.store.Insert(uint64(i), recordSize)
		c.m.EndOp()
	}
	c.records = c.cfg.Records
	c.loaded = true
}

// RunResult reports one workload execution.
type RunResult struct {
	Workload string
	Ops      int64
	Elapsed  sim.Duration
	// Throughput is operations per virtual second.
	Throughput float64
	// Per-operation latency percentiles on the virtual timeline, as the
	// real YCSB reports.
	P50, P95, P99 sim.Duration
	MeanLatency   sim.Duration
	// Unsupported is set when the back-end rejected the workload's
	// operations (workload E on memcached).
	Unsupported bool
}

// Run executes ops operations of workload w and reports throughput
// measured on the virtual clock. Load must have run first.
func (c *Client) Run(w Workload, ops int64) RunResult {
	r := c.StartRun(w, ops)
	for r.Step() {
	}
	return r.Finish()
}

// Run is one in-flight workload execution, stepped one operation at a time.
// Client.Run drives it to completion in a tight loop; resumable harnesses
// (the soak driver, the checkpoint layer) step it explicitly so every op
// boundary is a quiescent point where a snapshot can be taken.
// Step consumes ops a drawer draws ahead of it (ahead.go); while the run
// draws, the client's RNG and the run's chooser stand where settle last
// re-derived them.
type Run struct {
	c *Client
	w Workload
	// chooser is the run's chooser at its start, or at the op boundary
	// settle last brought it to.
	chooser Chooser

	ops, done   int64
	startOps    int64
	start       sim.Time
	unsupported bool
	lat         stats.Histogram

	// The draws ahead of Step (ahead.go).
	d         *drawer
	cur, next *chunk // the chunk Step consumes and the one filled after it
	batch     []op   // cur.ops
	pos       int    // ops of batch consumed
	pending   bool   // next is being filled
}

// StartRun begins a workload execution of ops operations. Load must have run
// first.
func (c *Client) StartRun(w Workload, ops int64) *Run {
	if !c.loaded {
		panic("ycsb: Run before Load")
	}
	if c.run != nil {
		c.run.settle()
	}
	chooser := c.chooserFor(w)
	// A scrambled run without inserts draws one key an op from one key
	// space, so a run of tableBuildEvals ops would pay for the table
	// anyway: build it now rather than after that many formula draws.
	if s, ok := chooser.(*Scrambled); ok && w.InsertProp == 0 &&
		c.records <= tableMaxItems && ops >= tableBuildEvals(c.records) {
		c.tables.prepay(s.z, scramble)
	}
	c.run = &Run{
		c: c, w: w, chooser: chooser,
		ops: ops, startOps: c.m.Ops, start: c.m.Clock.Now(),
	}
	return c.run
}

// Workload returns the run's operation mix.
func (r *Run) Workload() Workload { return r.w }

// Done returns completed operations; Ops returns the target count.
func (r *Run) Done() int64 { return r.done }

// Ops returns the run's target operation count.
func (r *Run) Ops() int64 { return r.ops }

// Step executes one operation. It returns false once the run is complete
// (target reached, or the back-end rejected the workload); further calls are
// no-ops.
func (r *Run) Step() bool {
	if r.done >= r.ops || r.unsupported {
		return false
	}
	if r.pos == len(r.batch) {
		r.advance()
	}
	o := r.batch[r.pos]
	r.pos++
	c := r.c
	opStart := c.m.Clock.Now()
	switch o.kind() {
	case opRead:
		c.store.Get(o.key())
	case opUpdate:
		c.store.Set(o.key(), recordSize)
	case opInsert:
		c.records++
		c.store.Insert(o.key(), recordSize)
	case opRMW:
		c.store.ReadModifyWrite(o.key())
	default:
		if err := c.store.Scan(o.key(), 100); err != nil {
			r.unsupported = true
		}
	}
	c.m.EndOp()
	r.lat.Add(float64(c.m.Clock.Now() - opStart))
	r.done++
	if r.done < r.ops && !r.unsupported {
		return true
	}
	r.stop()
	return false
}

// Finish computes the run's result.
func (r *Run) Finish() RunResult {
	c := r.c
	elapsed := sim.Duration(c.m.Clock.Now() - r.start)
	res := RunResult{
		Workload:    r.w.Name,
		Ops:         c.m.Ops - r.startOps,
		Elapsed:     elapsed,
		Unsupported: r.unsupported,
		P50:         sim.Duration(r.lat.Percentile(50)),
		P95:         sim.Duration(r.lat.Percentile(95)),
		P99:         sim.Duration(r.lat.Percentile(99)),
		MeanLatency: sim.Duration(r.lat.Mean()),
	}
	if elapsed > 0 && !r.unsupported {
		res.Throughput = float64(res.Ops) / elapsed.Seconds()
	}
	return res
}

// chooserFor builds the key chooser for one workload run over the current
// record count.
func (c *Client) chooserFor(w Workload) Chooser {
	switch w.Dist {
	case DistLatest:
		return &Latest{z: c.zipfian()}
	case DistUniform:
		return NewUniform(c.records)
	default:
		return &Scrambled{z: c.zipfian()}
	}
}

// zipfian returns NewZipfian(c.records) on the client's tables, without
// summing zeta again when the record count has not moved since the last run.
func (c *Client) zipfian() *Zipfian {
	if c.zetaItems != c.records {
		c.zetan = zetaRange(0, c.records, ZipfianConstant, 0)
		c.zetaItems = c.records
	}
	return newZipfian(c.records, ZipfianConstant, c.zetan, &c.tables)
}
