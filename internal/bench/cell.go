package bench

import (
	"sync"

	"multiclock/internal/core"
	"multiclock/internal/fault"
	"multiclock/internal/graph"
	"multiclock/internal/mem"
	"multiclock/internal/metrics"
	"multiclock/internal/runner"
	"multiclock/internal/sim"
)

// cellKind is the driver a cell runs on its machine.
type cellKind uint8

const (
	// kindSequence loads the store and runs the YCSB paper sequence.
	kindSequence cellKind = iota
	// kindWorkloadA loads the store and runs workload A cold, then if warm again.
	kindWorkloadA
	// kindKernel loads a Kronecker graph and runs one GAPBS kernel.
	kindKernel
	// kindRace runs the two-process DRAM allocation race.
	kindRace
)

// A cell is one machine run of the evaluation: the scale's template under
// one system, with the overrides its experiment sets, driven by one kind of
// driver. A cell is also its own cache key: experiments that ask for equal
// cells share one run.
type cell struct {
	kind   cellKind
	system string
	kernel string // kindKernel: the GAPBS kernel
	batch  int    // MULTI-CLOCK's ScanBatch; 0 keeps the default
	huge   bool   // kindWorkloadA: the item arena on transparent huge pages
	warm   bool   // kindWorkloadA: measure a steady pass after the cold one
	track  bool   // kindSequence: a PromotionTracker rides along

	records, ops     int64
	dram, pm         int
	tiers            string
	interval, window sim.Duration
	seed             uint64
	chaos            fault.Config
	graph            graphScale

	// A collector claimed from pool under label, with the sinks; set only for
	// an experiment exporting to a pool, so without one no label splits a run.
	pool  *metrics.Pool
	label string
	sinks Sinks
}

// cell returns the template's cell of kind under system. A graph machine is
// sized by the graph scale and reads no YCSB sizing, so fig. 7's record
// count does not split its PageRank cells from fig. 6's.
func (sc scale) cell(kind cellKind, system string) cell {
	c := cell{kind: kind, system: system, records: sc.Records, ops: sc.Ops, dram: sc.DRAMPages, pm: sc.PMPages,
		tiers: sc.Tiers, interval: sc.Interval, seed: sc.Seed, chaos: sc.Chaos, graph: sc.Graph}
	if kind == kindKernel {
		c.records, c.ops, c.dram, c.pm = 0, 0, sc.Graph.DRAMPages, sc.Graph.PMPages
	} else if sc.Pool != nil && sc.Prefix != "" {
		c.pool, c.label, c.sinks = sc.Pool, sc.Prefix+system, sc.Sinks
		if kind == kindWorkloadA {
			c.label += "@" + sc.Interval.String()
		}
	}
	return c
}

// cells returns the template's cells of kind, one per system.
func (sc scale) cells(kind cellKind, systems ...string) []cell {
	out := make([]cell, len(systems))
	for i, system := range systems {
		out[i] = sc.cell(kind, system)
	}
	return out
}

// cellResult is what a finished cell hands back: plain values, never the
// machine.
type cellResult struct {
	tp           map[string]float64 // kindSequence: ops/s per workload
	cold, steady float64            // kindWorkloadA: ops/s of each pass
	seconds      float64            // kindKernel: mean virtual seconds per trial
	early, late  float64            // kindRace: ops/s of each process
	counters     mem.Counters
	promotions   *PromotionTracker // track: detached from the machine
}

// run builds the cell's machine, drives it and returns its results; edges
// supplies a graph recipe's edge list.
func (c cell) run(edges func(graph.GenConfig) []graph.Edge) (r cellResult) {
	rc := RunConfig{Policy: c.system, Records: c.records, Ops: c.ops, DRAMPages: c.dram, PMPages: c.pm,
		Tiers: c.tiers, Interval: c.interval, Seed: c.seed, Chaos: c.chaos}
	// Experiments name their systems and validate their tier spec up
	// front, so a failure here is a bug.
	p, err := NewPolicy(c.system, c.interval)
	if err != nil {
		panic(err)
	}
	if c.batch != 0 {
		cfg := core.DefaultConfig()
		cfg.ScanInterval, cfg.ScanBatch = c.interval, c.batch
		p = core.New(cfg)
	}
	m, err := rc.MachineWith(p)
	if err != nil {
		panic(err)
	}
	instrument(c.pool, c.sinks, m, c.label)
	switch c.kind {
	case kindSequence:
		r.tp, r.promotions = runSequence(rc, m, c.track, c.window)
	case kindWorkloadA:
		r.cold, r.steady = runWorkloadA(rc, m, c.warm, c.huge)
	case kindKernel:
		cfg := graph.GenConfig{Vertices: c.graph.Vertices, Degree: c.graph.Degree, Kronecker: true, Seed: c.seed}
		g := graph.Build(m, edges(cfg), cfg.Vertices, cfg.Seed)
		r.seconds = runKernel(m, g, c.kernel, c.seed, c.graph).Seconds()
	case kindRace:
		r.early, r.late = runRace(m, c.ops, c.seed)
	}
	stopDaemons(m.Policy)
	r.counters = m.Mem.Counters
	return r
}

// cellCache holds the cells of one call of Stream and the edge lists their
// graphs are built from, each computed once.
type cellCache struct {
	cells memo[cell, cellResult]
	edges memo[graph.GenConfig, []graph.Edge]
}

// get returns c's result, computing it on first request. Machines only read
// an edge list (graph.Build copies it into simulated memory), so one list
// serves every machine built from its recipe.
func (cc *cellCache) get(c cell) cellResult {
	return cc.cells.get(c, func() cellResult {
		return c.run(func(cfg graph.GenConfig) []graph.Edge {
			return cc.edges.get(cfg, func() []graph.Edge { return graph.GenerateEdges(cfg) })
		})
	})
}

// run computes cells through the Options' cache on its workers and returns
// their results in cell order.
func (o Options) run(cells []cell) []cellResult {
	return runner.Map(o.workers(), cells, func(_ int, c cell) cellResult { return o.cache.get(c) })
}

// memo computes each key's value once. A request for a key that another
// goroutine is computing waits for that value; a panic in the computation
// reaches every requester.
type memo[K comparable, V any] struct {
	mu       sync.Mutex
	entries  map[K]*memoEntry[V]
	requests int
}

type memoEntry[V any] struct {
	once    sync.Once
	val     V
	failure any
}

func (mo *memo[K, V]) get(key K, compute func() V) V {
	mo.mu.Lock()
	mo.requests++
	e := mo.entries[key]
	if e == nil {
		if mo.entries == nil {
			mo.entries = map[K]*memoEntry[V]{}
		}
		e = new(memoEntry[V])
		mo.entries[key] = e
	}
	mo.mu.Unlock()
	e.once.Do(func() {
		defer func() { e.failure = recover() }()
		e.val = compute()
	})
	if e.failure != nil {
		panic(e.failure)
	}
	return e.val
}
