package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"multiclock/internal/bench"
	"multiclock/internal/core"
	"multiclock/internal/graph"
	"multiclock/internal/kvstore"
	"multiclock/internal/machine"
	"multiclock/internal/pagecache"
	"multiclock/internal/pagetable"
	"multiclock/internal/sim"
	"multiclock/internal/ycsb"
)

// workload is one benchmark input: a machine shape plus a fixed amount of
// measured work, all derived from the run seed. The four workloads exist to
// separate the simulator's layers; the why strings are BENCHMARK.json's.
type workload struct {
	name  string
	why   string
	build func(sc scale, seed uint64, o buildOpts) *instance
}

// scale selects how much work one repetition does. Machine shapes never
// scale: smoke runs the real configuration for ~1/100 of the work.
type scale struct {
	name string
	// work divides set-up warm-up and measured work.
	work int
	// trace further divides measured work in the traced pass and its
	// ladder of control runs, which repeat the workload many times.
	trace int
}

var (
	scaleFull  = scale{name: "full", work: 1, trace: 4}
	scaleSmoke = scale{name: "smoke", work: 100, trace: 1}
)

// buildOpts varies one control-run dimension at a time; the zero value is
// the workload as specified.
type buildOpts struct {
	// policy overrides "multiclock" (the ladder's S3/S4 use "static").
	policy string
	// noCPUCache builds the machine with CPUCachePages=0 (ladder S4).
	noCPUCache bool
	// wrap decorates the policy before the machine attaches it.
	wrap func(machine.Policy) machine.Policy
	// onMachine runs right after machine.New, before any workload access
	// (sinks attach here so they see the whole run).
	onMachine func(*machine.Machine)
	// traced divides the measured work by scale.trace.
	traced bool
	// direct asks ycsb-a to drive kvstore from a precomputed op list
	// instead of through the ycsb client (ladder S1).
	direct bool
}

// instance is one built workload: set-up is done, the measured region has
// not started.
type instance struct {
	m      *machine.Machine
	policy machine.Policy // undecorated
	// batches is the measured work; runBatch(i) runs batch i, in order.
	batches  int
	runBatch func(i int)
	// opsPerBatch is the workload-level operation count of one batch, for
	// the attempted total.
	opsPerBatch int64
	// check verifies the outputs after the measured region; it may touch
	// the machine (it runs after counters are read).
	check func() checks
	// layer reports the workload layer's own figures: counts over the
	// measured region and timed parts of set-up.
	layer func() map[string]float64
	// supervised replays the recorded stream through SupervisedAccess
	// (file pages) instead of AccessN.
	supervised bool
	stop       func()
}

// checks tallies output checks: how many were attempted, how many failed,
// and what the first few failures were. Workload operations count as
// attempted checks too; none of them can fail on these workloads except
// through a check.
type checks struct {
	attempted, failed int64
	notes             []string
}

func (c *checks) expect(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		if len(c.notes) < 8 {
			c.notes = append(c.notes, fmt.Sprintf(format, args...))
		}
	}
}

// absorb adds a run's operations and its checks.
func (c *checks) absorb(r rep) {
	c.attempted += r.ops + r.check.attempted
	c.failed += r.check.failed
	c.notes = append(c.notes, r.check.notes...)
}

func div(n int64, by int) int64 {
	n /= int64(by)
	if n < 1 {
		n = 1
	}
	return n
}

// newMachine builds a two-tier machine the way internal/bench's
// experiments do (OpCost 1 µs), running the named policy.
func newMachine(dram, pm int, interval sim.Duration, seed uint64, o buildOpts) (*machine.Machine, machine.Policy) {
	name := o.policy
	if name == "" {
		name = "multiclock"
	}
	p, err := bench.NewPolicy(name, interval)
	if err != nil {
		panic(err)
	}
	cfg := machine.DefaultConfig()
	cfg.Mem.DRAMNodes = []int{dram}
	cfg.Mem.PMNodes = []int{pm}
	cfg.Seed = seed
	cfg.OpCost = 1 * sim.Microsecond
	if o.noCPUCache {
		cfg.CPUCachePages = 0
	}
	attached := p
	if o.wrap != nil {
		attached = o.wrap(p)
	}
	m := machine.New(cfg, attached)
	if o.onMachine != nil {
		o.onMachine(m)
	}
	return m, p
}

func stopPolicy(p machine.Policy) func() {
	return func() {
		if st, ok := p.(machine.Stopper); ok {
			st.Stop()
		}
	}
}

var workloads = []workload{
	{
		name:  "ycsb-a",
		why:   "Paper Fig. 5 headline: whole stack in proportion (ycsb, kvstore, resident read+write path, ~26% cache-filtered, steady promote/demote traffic, daemons ~10% of host time).",
		build: buildYCSBA,
	},
	{
		name:  "gapbs-pr",
		why:   "Graph compute on the cached side of AccessN (~90% cache-filtered, daemons ~1% of host time); bypasses ycsb/kvstore and nearly all of core/lru/mem: the no-change control for daemon and policy work.",
		build: buildGAPBSPR,
	},
	{
		name:  "hotset-drift",
		why:   "Fig. 10 short-interval regime: 1 ms scans over a sliding hot window, so kpromoted, ScanCycle and Migrate do most of the host work while the workload layer is a bare loop.",
		build: buildHotsetDrift,
	},
	{
		name:  "file-churn",
		why:   "Same machine/lru/core layers used differently: fault path, SupervisedAccess, file LRU lists and Pressure/reclaim instead of promote-scan (~0.4 faults per access).",
		build: buildFileChurn,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// --- ycsb-a ---

const (
	ycsbRecords   = 24_000
	ycsbWarmOps   = 1_500_000
	ycsbOps       = 12_000_000
	ycsbBatchOps  = 32_768 // ≈ 12 ms of host time: long enough to time, short enough to dodge interference
	ycsbSeedSalt  = 0x9c5b
	ycsbCheckKeys = 1000
)

// ycsbOp is one precomputed operation: key<<1 | isUpdate.
type ycsbOp uint64

// ycsbOpStream reproduces the ycsb client's random draws for workload A
// (one Float64 for the mix, one scrambled-zipfian key), so a store driven
// from the list sees exactly the operations the client would issue.
func ycsbOpStream(rng *sim.RNG, n int64) []ycsbOp {
	chooser := ycsb.NewScrambled(ycsbRecords)
	ops := make([]ycsbOp, n)
	for i := range ops {
		p := rng.Float64()
		key := ycsbOp(chooser.Next(rng)) << 1
		if p >= ycsb.WorkloadA.ReadProp {
			key |= 1
		}
		ops[i] = key
	}
	return ops
}

// newYCSB puts the evaluation's store (8 line transfers per record touch)
// and a YCSB client on m.
func newYCSB(m *machine.Machine, seed uint64) (*kvstore.Store, *ycsb.Client) {
	storeCfg := kvstore.DefaultConfig(ycsbRecords)
	storeCfg.ItemTouches = 8
	store := kvstore.New(m, storeCfg)
	ccfg := ycsb.DefaultClientConfig(ycsbRecords)
	ccfg.Seed = seed ^ ycsbSeedSalt
	return store, ycsb.NewClient(m, store, ccfg)
}

func buildYCSBA(sc scale, seed uint64, o buildOpts) *instance {
	m, p := newMachine(1024, 24_576, 10*sim.Millisecond, seed, o)
	store, client := newYCSB(m, seed)
	warm := div(ycsbWarmOps, sc.work)
	ops := div(ycsbOps, sc.work)
	if o.traced {
		ops = div(ops, sc.trace)
	}
	inst := &instance{m: m, policy: p, opsPerBatch: ycsbBatchOps, stop: stopPolicy(p)}
	inst.batches = int((ops + ycsbBatchOps - 1) / ycsbBatchOps)
	ops = int64(inst.batches) * ycsbBatchOps
	var before kvstore.Stats // at the start of the measured region

	if o.direct {
		// Ladder S1: the same operations without the ycsb client.
		rng := sim.NewRNG(seed ^ ycsbSeedSalt)
		for i := int64(0); i < ycsbRecords; i++ {
			store.Insert(uint64(i), 1000)
			m.EndOp()
		}
		apply := func(list []ycsbOp) {
			for _, op := range list {
				if op&1 == 0 {
					store.Get(uint64(op >> 1))
				} else {
					store.Set(uint64(op>>1), 1000)
				}
				m.EndOp()
			}
		}
		apply(ycsbOpStream(rng, warm))
		list := ycsbOpStream(rng, ops)
		before = store.Stats
		inst.runBatch = func(i int) { apply(list[i*ycsbBatchOps : (i+1)*ycsbBatchOps]) }
	} else {
		client.Load()
		client.Run(ycsb.WorkloadA, warm)
		before = store.Stats
		var run *ycsb.Run
		inst.runBatch = func(int) {
			if run == nil {
				run = client.StartRun(ycsb.WorkloadA, ops)
			}
			for j := 0; j < ycsbBatchOps; j++ {
				run.Step()
			}
		}
	}
	inst.layer = func() map[string]float64 {
		s := store.Stats
		kvOps := float64(s.Gets - before.Gets + s.Sets - before.Sets)
		ycsbOpsDone := kvOps
		if o.direct {
			ycsbOpsDone = 0
		}
		return map[string]float64{"ycsb.ops": ycsbOpsDone, "kvstore.ops": kvOps}
	}
	inst.check = func() checks {
		var c checks
		s := store.Stats
		c.expect(s.GetHits-before.GetHits == s.Gets-before.Gets,
			"ycsb-a: %d of %d Gets missed a loaded key", (s.Gets-before.Gets)-(s.GetHits-before.GetHits), s.Gets-before.Gets)
		c.expect(store.Items() == ycsbRecords, "ycsb-a: store holds %d records, want %d", store.Items(), ycsbRecords)
		rng := sim.NewRNG(seed ^ 0xc4ec)
		for i := 0; i < ycsbCheckKeys; i++ {
			key := uint64(rng.Intn(ycsbRecords))
			c.expect(store.Get(key), "ycsb-a: loaded key %d no longer Gets", key)
		}
		return c
	}
	return inst
}

// --- gapbs-pr ---

// PageRank runs as prCalls calls of prIters iterations (the paper bench's
// own per-trial count) so the region has batches to time separately; each
// call maps fresh score arrays, as each GAPBS trial does.
const (
	prVertices = 96_000
	prDegree   = 8
	prCalls    = 10
	prIters    = 5
)

func buildGAPBSPR(sc scale, seed uint64, o buildOpts) *instance {
	m, p := newMachine(1024, 16_384, 10*sim.Millisecond, seed, o)
	calls := int(div(prCalls, sc.work))
	if o.traced {
		calls = int(div(int64(calls), sc.trace))
	}
	vertices := prVertices
	if sc.work > 1 {
		vertices /= 10 // keep smoke set-up short; the shape is unchanged
	}
	inst := &instance{m: m, policy: p, batches: calls, stop: stopPolicy(p)}
	cfg := graph.GenConfig{Vertices: vertices, Degree: prDegree, Kronecker: true, Seed: seed}
	edges := graph.GenerateEdges(cfg)
	t0 := time.Now()
	g := graph.Build(m, edges, vertices, seed)
	buildS := since(t0)
	inst.opsPerBatch = prIters * int64(g.M)

	var ranks []float64
	inst.runBatch = func(int) { ranks = g.PageRank(prIters) }
	inst.layer = func() map[string]float64 {
		return map[string]float64{"graph.edges_traversed": float64(calls) * prIters * float64(g.M), "graph.build_s": buildS}
	}
	inst.check = func() checks {
		var c checks
		ref := referencePageRank(edges, vertices, prIters)
		c.expect(len(ranks) == len(ref), "gapbs-pr: %d ranks, want %d", len(ranks), len(ref))
		var mass, refMass, worst float64
		for i := range ref {
			if i < len(ranks) {
				mass += ranks[i]
				worst = math.Max(worst, math.Abs(ranks[i]-ref[i]))
			}
			refMass += ref[i]
		}
		c.expect(worst <= 1e-12, "gapbs-pr: rank vector differs from the host reference by %g", worst)
		// Isolated Kronecker vertices leak mass, so the total is checked
		// against the reference's and bounded by 1, not pinned to 1.
		c.expect(math.Abs(mass-refMass) <= 1e-9 && mass > 0 && mass <= 1+1e-9,
			"gapbs-pr: PageRank mass %g, reference %g", mass, refMass)
		return c
	}
	return inst
}

// referencePageRank is PageRank on the host alone, with the arithmetic in
// graph.PageRank's order over graph.Build's adjacency (symmetrized, sorted,
// deduplicated), so the simulated kernel must match it to rounding.
func referencePageRank(edges []graph.Edge, n, iters int) []float64 {
	adj := make([][]int32, n)
	for _, e := range edges {
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	for u, l := range adj {
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
		out := l[:0]
		prev := int32(-1)
		for _, v := range l {
			if v != prev {
				out = append(out, v)
				prev = v
			}
		}
		adj[u] = out
	}
	const damping = 0.85
	scores := make([]float64, n)
	outgoing := make([]float64, n)
	for i := range scores {
		scores[i] = 1 / float64(n)
	}
	base := (1 - damping) / float64(n)
	for it := 0; it < iters; it++ {
		for u := range adj {
			if d := len(adj[u]); d > 0 {
				outgoing[u] = scores[u] / float64(d)
			} else {
				outgoing[u] = 0
			}
		}
		for u := range adj {
			var sum float64
			for _, v := range adj[u] {
				sum += outgoing[v]
			}
			scores[u] = base + damping*sum
		}
	}
	return scores
}

// --- hotset-drift ---

const (
	driftRegion   = 60_000
	driftWindow   = 3_000
	driftStep     = 50
	driftEvery    = 20_000
	driftWarm     = 3_000_000
	driftAccesses = 25_000_000
	driftBatch    = 65_536
)

func buildHotsetDrift(sc scale, seed uint64, o buildOpts) *instance {
	m, p := newMachine(4096, 65_536, 1*sim.Millisecond, seed, o)
	as := m.NewSpace()
	vma := as.Mmap(driftRegion, false, "drift")
	rng := sim.NewRNG(seed ^ 0xd21f)
	var issued int64
	access := func(n int64) {
		for i := int64(0); i < n; i++ {
			var page int
			if rng.Intn(10) != 0 {
				start := int(issued/driftEvery) * driftStep
				page = (start + rng.Intn(driftWindow)) % driftRegion
			} else {
				page = rng.Intn(driftRegion)
			}
			m.Access(as, vma.Start+pagetable.VPN(page), rng.Intn(4) == 0)
			m.EndOp()
			issued++
		}
	}
	m.AccessRange(as, vma.Start, driftRegion, true, 1)
	access(div(driftWarm, sc.work))
	total := div(driftAccesses, sc.work)
	if o.traced {
		total = div(total, sc.trace)
	}
	inst := &instance{m: m, policy: p, opsPerBatch: driftBatch, stop: stopPolicy(p)}
	inst.batches = int((total + driftBatch - 1) / driftBatch)
	inst.runBatch = func(int) { access(driftBatch) }
	inst.layer = func() map[string]float64 { return nil }
	inst.check = func() checks {
		var c checks
		c.expect(as.Mapped() == driftRegion, "hotset-drift: %d of %d pages mapped", as.Mapped(), driftRegion)
		return c
	}
	return inst
}

// --- file-churn ---

const (
	churnStreamPages = 40_000
	churnHotPages    = 600
	churnWarmRounds  = 15
	churnRounds      = 120
	churnWriteEvery  = 8
)

func buildFileChurn(sc scale, seed uint64, o buildOpts) *instance {
	m, p := newMachine(1024, 8192, 10*sim.Millisecond, seed, o)
	pc := pagecache.New(m)
	pc.StartFlusher(1 * sim.Second)
	stream := pc.Open("stream", churnStreamPages)
	hot := pc.Open("hot", churnHotPages)
	rng := sim.NewRNG(seed ^ 0xf11e)
	// A smoke round streams a slice of the file; the slices advance so the
	// stream still never re-reads a resident page.
	per := int(div(churnStreamPages, sc.work))
	if per < 2*churnWriteEvery {
		per = 2 * churnWriteEvery
	}
	pos := 0
	round := func() {
		for i := 0; i < per; i++ {
			if pos%churnWriteEvery == 0 {
				stream.Write(pos)
			} else {
				stream.Read(pos)
			}
			m.EndOp()
			hot.Read(rng.Intn(churnHotPages))
			m.EndOp()
			pos = (pos + 1) % churnStreamPages
		}
	}
	hot.ReadRange(0, churnHotPages)
	for i := 0; i < churnWarmRounds; i++ {
		round()
	}
	rounds := churnRounds
	if o.traced {
		rounds = int(div(int64(rounds), sc.trace))
	}
	inst := &instance{m: m, policy: p, batches: rounds, opsPerBatch: int64(2 * per), supervised: true}
	inst.stop = func() {
		pc.StopFlusher()
		stopPolicy(p)()
	}
	r0, w0, miss0, flushed0 := stream.Reads+hot.Reads, stream.Writes+hot.Writes, stream.CacheMisses+hot.CacheMisses, pc.FlushedPages
	inst.runBatch = func(int) { round() }
	inst.layer = func() map[string]float64 {
		reads := float64(stream.Reads + hot.Reads - r0)
		writes := float64(stream.Writes + hot.Writes - w0)
		return map[string]float64{
			"pagecache.reads":         reads,
			"pagecache.writes":        writes,
			"pagecache.miss_ratio":    ratio(float64(stream.CacheMisses+hot.CacheMisses-miss0), reads+writes),
			"pagecache.flushed_pages": float64(pc.FlushedPages - flushed0),
		}
	}
	inst.check = func() checks {
		var c checks
		want := int64(rounds) * int64(2*per)
		got := stream.Reads + hot.Reads - r0 + stream.Writes + hot.Writes - w0
		c.expect(got == want, "file-churn: %d file operations, want %d", got, want)
		resident := stream.Resident() + hot.Resident()
		c.expect(resident > 0 && resident <= 1024+8192, "file-churn: %d resident file pages on a 9216-frame machine", resident)
		return c
	}
	return inst
}

// multiclockOf returns the MULTI-CLOCK policy behind an instance, or nil
// for a control run on another policy.
func multiclockOf(p machine.Policy) *core.MultiClock {
	mc, _ := p.(*core.MultiClock)
	return mc
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
