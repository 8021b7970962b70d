// Package machine assembles the simulated hybrid-memory computer: the
// virtual clock, the physical memory system, per-node LRU vectors, process
// address spaces, and a pluggable tiering policy. Workloads drive it through
// Access/Compute calls; the machine translates, faults, charges latency on
// the virtual timeline, and lets the policy's daemons interleave exactly as
// kernel threads would.
package machine

import (
	"fmt"

	"multiclock/internal/fault"
	"multiclock/internal/lru"
	"multiclock/internal/mem"
	"multiclock/internal/pagetable"
	"multiclock/internal/sim"
)

const (
	// daemonInterference is the fraction of daemon-side work (scanning and
	// page copying) charged to the application timeline, modelling memory
	// bandwidth contention and context switches. The paper observes that
	// over-frequent kpromoted scheduling costs application performance
	// (§III-B, §V-E); this factor is how that cost manifests.
	daemonInterference = 0.4
	// DefaultOpCost is DefaultConfig's CPU time per operation (OpCost): the
	// facade's NewSystem (unless its Config sets one) and the machine tests.
	DefaultOpCost = 1500 * sim.Nanosecond
	// EvaluationOpCost is the evaluation's: every machine built from a
	// bench.RunConfig (mcsim's runs and experiments, the sessions
	// and snapshots), and benchmarks/'s YCSB machines, run at it.
	EvaluationOpCost = 1 * sim.Microsecond
)

// Config describes a machine.
type Config struct {
	Mem  mem.Config
	Seed uint64

	// OpCost is the default CPU time per workload operation outside of
	// memory accesses (request parsing, hashing, ...). Workloads may charge
	// more via Compute.
	OpCost sim.Duration

	// Faults configures deterministic fault injection (chaos testing):
	// transient migration failures, PM media-slowdown windows, daemon
	// overruns and allocation storms. The zero value (all rates zero)
	// builds no injector and leaves every path exactly as without it.
	Faults fault.Config

	// CPUCachePages models the CPU cache hierarchy as an LRU set of
	// recently-touched pages: accesses to them cost Lat.CacheHit instead of
	// memory latency. Without it, small always-hot structures (a graph
	// kernel's per-vertex arrays, a store's bucket headers) would be
	// charged DRAM/PM latency on every access that real hardware serves
	// from L2/L3. Zero disables the filter.
	CPUCachePages int
}

// DefaultConfig returns a machine with the default memory layout and
// calibrated overheads.
func DefaultConfig() Config {
	return Config{
		Mem:           mem.DefaultConfig(),
		Seed:          1,
		OpCost:        DefaultOpCost,
		CPUCachePages: 64, // ≈256 KiB of page-granular reach
	}
}

// Observer receives simulation telemetry. All methods are called
// synchronously on the simulation thread. Observers attach through
// Machine.Attach; any number may be attached at once and each receives
// every event in attach order.
type Observer interface {
	// OnAccess fires for every application memory access after the page is
	// resident.
	OnAccess(pg *mem.Page, write bool, now sim.Time)
	// OnMigrate fires after a successful migration.
	OnMigrate(pg *mem.Page, from, to mem.NodeID, now sim.Time)
	// OnFault fires for minor faults (hint=false) and hint faults (true).
	OnFault(pg *mem.Page, hint bool, now sim.Time)
}

// Machine is the simulated computer.
type Machine struct {
	Clock *sim.Clock
	Mem   *mem.System
	// Vecs holds one LRU vector per node, indexed by NodeID. All policies
	// share this structure; reference-bit policies drive it, others ignore
	// it (pages still ride the lists so eviction always works).
	Vecs   []*lru.Vec
	Policy Policy
	RNG    *sim.RNG

	// Faults is the machine's fault injector, or nil when injection is
	// disabled. mem.System shares the same injector.
	Faults *fault.Injector

	// Metrics is the optional telemetry sink (install via SetMetrics). Nil
	// leaves every path exactly as without the telemetry layer.
	Metrics Telemetry

	// observers is the attach-ordered registry; observer is the compiled
	// fan-out target the hot path dispatches to (nil when empty).
	observers []*obsSlot
	observer  Observer

	spaces []*pagetable.AddressSpace

	cache *pageCache

	cfg Config

	// pendingTax is latency accrued by daemon work that the next
	// application access will absorb (TLB shootdowns, bandwidth
	// contention).
	pendingTax sim.Duration

	// daemonWork accumulates raw (pre-interference) daemon-side cost; the
	// pass hook reads deltas of it to time individual daemon wakeups.
	daemonWork sim.Duration

	// Ops counts completed workload operations (for throughput).
	Ops int64
}

// New builds a machine running the given policy. The policy's Attach hook
// runs immediately so its daemons start at time zero.
func New(cfg Config, p Policy) *Machine {
	m := &Machine{
		Clock:  sim.NewClock(),
		RNG:    sim.NewRNG(cfg.Seed),
		Policy: p,
		cfg:    cfg,
	}
	m.Mem = mem.NewSystem(m.Clock, cfg.Mem)
	if cfg.Faults.Enabled() {
		m.Faults = fault.New(m.Clock, cfg.Faults)
		m.Mem.Faults = m.Faults
	}
	m.Vecs = make([]*lru.Vec, len(m.Mem.Nodes))
	for i := range m.Vecs {
		m.Vecs[i] = lru.NewVec(mem.NodeID(i))
	}
	if cfg.CPUCachePages > 0 {
		m.cache = newPageCache(cfg.CPUCachePages)
	}
	p.Attach(m)
	return m
}

// NewSpace creates a process address space.
func (m *Machine) NewSpace() *pagetable.AddressSpace {
	as := pagetable.New(int32(len(m.spaces)))
	m.spaces = append(m.spaces, as)
	return as
}

// Space returns the address space with the given ID.
func (m *Machine) Space(id int32) *pagetable.AddressSpace {
	return m.spaces[id]
}

// Spaces returns every address space on the machine.
func (m *Machine) Spaces() []*pagetable.AddressSpace { return m.spaces }

// Compute charges pure CPU time to the application timeline.
func (m *Machine) Compute(d sim.Duration) {
	m.Clock.Advance(d)
}

// EndOp marks one workload operation complete, charging the configured
// per-op CPU cost.
func (m *Machine) EndOp() {
	m.Ops++
	if m.cfg.OpCost > 0 {
		m.Clock.Advance(m.cfg.OpCost)
	}
}

// ChargeTax adds daemon-side cost to be absorbed by the application
// timeline on its next access, scaled by the interference factor.
func (m *Machine) ChargeTax(d sim.Duration) {
	m.daemonWork += d
	m.pendingTax += sim.Duration(float64(d) * daemonInterference)
}

// chargeDirect adds full-cost latency (e.g. TLB shootdown) to the pending
// application charge.
func (m *Machine) chargeDirect(d sim.Duration) {
	m.pendingTax += d
}

// AbsorbTax pays any accrued daemon tax on the timeline immediately.
// Harnesses call it at phase boundaries so costs from a setup phase are not
// billed to the first access of a measured region.
func (m *Machine) AbsorbTax() {
	if m.pendingTax > 0 {
		m.Clock.Advance(m.pendingTax)
		m.pendingTax = 0
	}
}

// Access performs one application memory access to vpn in space as,
// faulting the page in if needed, applying hint-fault costs, setting the
// hardware accessed/dirty bits, and advancing the virtual clock by the
// policy-determined latency. It returns the page for convenience.
//
// This is the unsupervised (mmap) access path: the OS learns about it only
// through the accessed bit (§III-A.2).
func (m *Machine) Access(as *pagetable.AddressSpace, vpn pagetable.VPN, write bool) *mem.Page {
	return m.AccessN(as, vpn, write, 1)
}

// AccessN is Access for an operation that touches lines of the page: it
// costs lines cache-line transfers (reading a ~1 KiB record misses many
// lines of one page). If the page sits in the modelled CPU cache the whole
// access is served there.
//
// Accounting contract (pinned by accounting_test.go): each iteration of the
// thrash-retry fault loop charges Lat.MinorFault exactly once and fault()
// increments Counters.MinorFaults exactly once, so fault latency and fault
// counters always move in lockstep. Cache-filtered accesses charge the
// Lat.CacheHit cost and count CacheFiltered but are deliberately not reported
// to Metrics.AccessLatency — that sink carries device-level memory-system
// cost, and a CPU-cache hit never reaches the memory system.
func (m *Machine) AccessN(as *pagetable.AddressSpace, vpn pagetable.VPN, write bool, lines int) *mem.Page {
	if lines < 1 {
		lines = 1
	}
	pg := as.Lookup(vpn)
	var lat sim.Duration
	for attempt := 0; pg == nil || pg.Node == mem.NoNode; attempt++ {
		// Fault the page in. In a severely oversubscribed machine the
		// pressure handling inside the fault can reclaim the page it
		// just created; retry a bounded number of times.
		if attempt == 3 {
			panic("machine: page reclaimed immediately after fault three times (thrashing)")
		}
		m.fault(as, vpn)
		lat += m.Mem.Lat.MinorFault
		// Ask the page table, not the descriptor fault built: if pressure
		// evicted the newborn, a huge-page split in the same episode may
		// already have reissued that descriptor to another page.
		pg = as.Lookup(vpn)
	}
	if pg.Flags.Has(mem.FlagPoisoned) {
		pagetable.Unpoison(pg)
		lat += m.Mem.Lat.HintFault
		m.Mem.Counters.HintFaults++
		m.Policy.HintFault(pg, write)
		if m.observer != nil {
			m.observer.OnFault(pg, true, m.Clock.Now())
		}
	}
	pagetable.Touch(pg, write)
	var sub int32
	if pg.IsHuge() {
		sub = int32(vpn % pagetable.HugePages)
	}
	hit := false
	if c := m.cache; c != nil {
		if idx := pg.CacheHint - 1; sub == 0 && idx >= 0 {
			// A cached base frame, found through its hint: the whole hit is
			// served here, in line, since a helper would stay a call.
			c.Hits++
			if c.head != idx {
				c.unlink(idx)
				c.pushFront(idx)
			}
			hit = true
		} else {
			hit = c.Touch(pg, sub)
		}
	}
	if hit {
		// Served by the CPU cache hierarchy: no memory-system traffic.
		m.Mem.Counters.CacheFiltered += int64(lines)
		lat += sim.Duration(lines) * m.Mem.Lat.CacheHit
	} else {
		tier := m.Mem.Tier(pg)
		if write {
			m.Mem.Counters.Writes[tier] += int64(lines)
		} else {
			m.Mem.Counters.Reads[tier] += int64(lines)
		}
		dev := sim.Duration(lines) * m.Policy.Access(pg, write)
		if m.Faults != nil {
			// Injected media-slowdown window: accesses below the fastest
			// tier inside it pay a multiple of their tier's base latency
			// (Optane tail spikes).
			dev += sim.Duration(lines) * m.Faults.AccessDelay(
				tier != m.Mem.FastestTier(), m.Mem.Lat.AccessCost(tier, write))
		}
		lat += dev
		if m.Metrics != nil {
			m.Metrics.AccessLatency(tier, write, dev, m.Clock.Now())
		}
	}
	if m.pendingTax > 0 {
		lat += m.pendingTax
		m.pendingTax = 0
	}
	if m.observer != nil {
		m.observer.OnAccess(pg, write, m.Clock.Now())
	}
	m.Clock.Advance(lat)
	return pg
}

// AccessRange touches n consecutive pages starting at base, one AccessN per
// page in ascending order, each with its full per-access semantics and clock
// advance. It is the natural driver for sequential record touches and
// initialization sweeps.
func (m *Machine) AccessRange(as *pagetable.AddressSpace, base pagetable.VPN, n int, write bool, lines int) *mem.Page {
	var pg *mem.Page
	for i := 0; i < n; i++ {
		pg = m.AccessN(as, base+pagetable.VPN(i), write, lines)
	}
	return pg
}

// SupervisedAccess performs an access mediated by the OS (read()/write()
// style on the page cache): in addition to everything Access does, the
// kernel calls mark_page_accessed immediately (§III-A.1), so the LRU state
// advances without waiting for a scanner.
func (m *Machine) SupervisedAccess(as *pagetable.AddressSpace, vpn pagetable.VPN, write bool) *mem.Page {
	pg := m.Access(as, vpn, write)
	pg.TestAndClearAccessed() // the OS consumed this access itself
	m.Vecs[pg.Node].MarkAccessed(pg)
	return pg
}

// fault populates vpn with a fresh page following the policy's allocation
// order, reclaiming if the whole machine is full. It returns nothing: the
// pressure handling at its end may evict the page it just mapped, and the
// page table is where the caller finds out.
func (m *Machine) fault(as *pagetable.AddressSpace, vpn pagetable.VPN) {
	vma := as.FindVMA(vpn)
	if vma == nil {
		panic(fmt.Sprintf("machine: segfault — access to unmapped vpn %#x in space %d", vpn, as.ID))
	}
	if vma.Huge {
		m.faultHuge(as, vpn, vma)
		return
	}
	order := m.Policy.AllocOrder()
	pg := m.Mem.Alloc(order)
	if pg == nil {
		// Machine full: direct reclaim, then retry. OOM-kill is a panic
		// because experiments must be sized to avoid it.
		if m.Policy.DirectReclaim(1) == 0 {
			m.Mem.Counters.OOMKills++
			panic("machine: out of memory and nothing reclaimable (OOM)")
		}
		pg = m.Mem.Alloc(order)
		if pg == nil {
			m.Mem.Counters.OOMKills++
			panic("machine: out of memory after reclaim (OOM)")
		}
	}
	if vma.File {
		pg.SetFlags(mem.FlagFile)
	}
	if vma.Locked {
		pg.SetFlags(mem.FlagUnevictable)
	}
	if as.TakeSwapped(vpn) {
		// Major fault: the contents must be read back from backing
		// store before the access completes.
		m.Mem.Counters.SwapIns++
		m.chargeDirect(m.Mem.Lat.SwapIn)
	}
	m.Mem.Counters.MinorFaults++
	as.Install(vpn, pg)
	// The faulting access is about to complete; the MMU sets the accessed
	// bit as part of resolving it, which also shields the newborn page
	// from the reclaim triggered below.
	pg.Accessed = true
	m.Vecs[pg.Node].Add(pg)
	m.Policy.PageBirth(pg)
	if m.observer != nil {
		m.observer.OnFault(pg, false, m.Clock.Now())
	}
	// Birth can push a node below its low watermark; let the policy react
	// (kswapd wakeup).
	if m.Mem.Nodes[pg.Node].UnderLow() {
		m.Policy.Pressure(pg.Node)
	}
}

// faultHuge populates an aligned transparent huge page covering vpn. When
// no contiguous block is available (fragmentation or pressure), or the region
// was split and part of it is still mapped, it falls back to base pages for
// this fault, as THP does.
func (m *Machine) faultHuge(as *pagetable.AddressSpace, vpn pagetable.VPN, vma *pagetable.VMA) {
	base := vpn - vpn%pagetable.HugePages
	pg := m.allocHuge(as, base)
	if pg == nil {
		hugeSave := vma.Huge
		vma.Huge = false
		m.fault(as, vpn)
		vma.Huge = hugeSave
		return
	}
	if vma.Locked {
		pg.SetFlags(mem.FlagUnevictable)
	}
	// Major-fault cost for any part of the region on swap.
	for i := 0; i < pagetable.HugePages; i++ {
		if as.TakeSwapped(base + pagetable.VPN(i)) {
			m.Mem.Counters.SwapIns++
			m.chargeDirect(m.Mem.Lat.SwapIn)
		}
	}
	m.Mem.Counters.MinorFaults++
	as.InstallRange(base, pg, pagetable.HugePages)
	pg.Accessed = true
	m.Vecs[pg.Node].Add(pg)
	m.Policy.PageBirth(pg)
	if m.observer != nil {
		m.observer.OnFault(pg, false, m.Clock.Now())
	}
	if m.Mem.Nodes[pg.Node].UnderLow() {
		m.Policy.Pressure(pg.Node)
	}
}

// allocHuge takes a huge-page block for the aligned region at base from the
// first node in the policy's allocation order that has one. It returns nil
// when none has, and when any PTE of the region is populated — a split huge
// page whose other base pages were swapped out or unmapped — since a compound
// mapping would overwrite the live PTEs.
func (m *Machine) allocHuge(as *pagetable.AddressSpace, base pagetable.VPN) *mem.Page {
	populated := false
	as.Walk(base, base+pagetable.HugePages, func(pagetable.VPN, *mem.Page) { populated = true })
	if populated {
		return nil
	}
	for _, t := range m.Policy.AllocOrder() {
		for _, id := range m.Mem.TierNodes(t) {
			if pg := m.Mem.AllocBlockOn(id, mem.MaxOrder, false); pg != nil {
				return pg
			}
		}
	}
	return nil
}

// Unmap releases the page at vpn: off the LRU, out of the page table, frame
// freed. For a compound page the whole aligned region is released. No-op if
// the PTE is empty.
func (m *Machine) Unmap(as *pagetable.AddressSpace, vpn pagetable.VPN) {
	var pg *mem.Page
	if probe := as.Lookup(vpn); probe != nil && probe.IsHuge() {
		pg = as.UnmapRange(pagetable.VPNOf(probe.VA), probe.Frames())
	} else {
		pg = as.Unmap(vpn)
	}
	if pg == nil {
		return
	}
	if pg.OnList() {
		m.Vecs[pg.Node].Delete(pg)
	}
	pg.ClearFlags(mem.FlagIsolated)
	if m.cache != nil {
		m.cache.Invalidate(pg)
	}
	m.Vecs[pg.Node].Note(pg, lru.CauseFreed)
	m.Policy.PageFreed(pg)
	m.Mem.Free(pg)
}

// MigratePage isolates pg from its LRU, migrates it to dst, and returns it
// to dst's LRU (flags preserved). Daemon-side cost is charged as tax; the
// full TLB-shootdown tax lands on the application. Returns false and
// restores the page when migration is impossible.
func (m *Machine) MigratePage(pg *mem.Page, dst mem.NodeID) bool {
	if pg.Flags.Has(mem.FlagUnevictable) || !pg.OnList() {
		m.Mem.Counters.MigrateFails++
		m.Vecs[pg.Node].Note(pg, lru.CauseMigrateFail)
		return false
	}
	src := pg.Node
	m.Vecs[src].Isolate(pg)
	if !m.MigrateIsolated(pg, dst) {
		m.Vecs[src].Putback(pg)
		return false
	}
	return true
}

// MigrateIsolated migrates a page the caller has already isolated (e.g. a
// demote candidate). On success the page is putback on dst; on failure the
// caller keeps ownership of the still-isolated page and must put it back or
// free it. Unevictable pages fail.
func (m *Machine) MigrateIsolated(pg *mem.Page, dst mem.NodeID) bool {
	src := pg.Node
	return m.finishMigration(pg, src, dst, m.Mem.Migrate(pg, dst))
}

// finishMigration completes a migration attempt of an isolated page. A failed
// attempt is reported and leaves the page isolated with the caller; a
// successful one puts the page back on dst's LRU and applies the shared
// post-migration accounting.
func (m *Machine) finishMigration(pg *mem.Page, src, dst mem.NodeID, res mem.MigrationResult) bool {
	if !res.OK {
		m.Vecs[src].Note(pg, lru.CauseMigrateFail)
		return false
	}
	m.Vecs[dst].Putback(pg)
	m.ChargeTax(res.Cost)
	m.chargeDirect(res.Tax)
	if m.cache != nil {
		// Moving the frame invalidates cached copies.
		m.cache.Invalidate(pg)
	}
	if m.Metrics != nil {
		m.Metrics.Migration(src, dst, pg.Frames(), res.Cost, m.Clock.Now())
	}
	cause := lru.CauseMigrated
	switch st, dt := m.Mem.Nodes[src].Tier, m.Mem.Nodes[dst].Tier; {
	case dt < st:
		cause = lru.CausePromoted
	case dt > st:
		cause = lru.CauseDemoted
	}
	m.Vecs[dst].Note(pg, cause)
	if m.observer != nil {
		m.observer.OnMigrate(pg, src, dst, m.Clock.Now())
	}
	return true
}

// SplitHuge breaks an isolated compound page into base pages
// (split_huge_page): the 512 PTEs are remapped to individual descriptors
// which join the LRU in the compound page's state, after which they age,
// migrate and swap independently. Returns the base pages.
func (m *Machine) SplitHuge(pg *mem.Page) []*mem.Page {
	if !pg.IsHuge() {
		panic("machine: SplitHuge of a base page")
	}
	if pg.Space < 0 {
		panic("machine: SplitHuge of an unmapped page")
	}
	as := m.spaces[pg.Space]
	base := pagetable.VPNOf(pg.VA)
	if m.cache != nil {
		m.cache.Invalidate(pg)
	}
	bases := m.Mem.Split(pg)
	for i, bp := range bases {
		as.Remap(base+pagetable.VPN(i), bp)
		bp.ClearFlags(mem.FlagLRU)
		m.Vecs[bp.Node].Add(bp)
	}
	// Remapping flushes the region's TLB entries once; the page-table
	// rewrite itself is daemon-side work.
	m.chargeDirect(m.Mem.Lat.MigrationTax)
	m.ChargeTax(sim.Duration(len(bases)) * m.Mem.Lat.DaemonScanPage)
	return bases
}

// SwapOut writes an isolated page to backing store and frees its frame: the
// last-resort path when the lowest tier is under pressure (§III-C). The
// page's mapping is destroyed; a future access faults a fresh page.
func (m *Machine) SwapOut(pg *mem.Page) {
	if !pg.Flags.Has(mem.FlagIsolated) {
		panic("machine: SwapOut of non-isolated page")
	}
	if pg.Space >= 0 {
		space := m.spaces[pg.Space]
		base := pagetable.VPNOf(pg.VA)
		if pg.IsHuge() {
			space.UnmapRange(base, pg.Frames())
			for i := 0; i < pg.Frames(); i++ {
				space.MarkSwapped(base + pagetable.VPN(i))
			}
		} else {
			space.Unmap(base)
			space.MarkSwapped(base)
		}
	}
	pg.ClearFlags(mem.FlagIsolated)
	m.Mem.Counters.SwapOuts += int64(pg.Frames())
	m.ChargeTax(m.Mem.Lat.SwapOut * sim.Duration(pg.Frames()))
	if m.cache != nil {
		m.cache.Invalidate(pg)
	}
	m.Vecs[pg.Node].Note(pg, lru.CauseSwapOut)
	m.Policy.PageFreed(pg)
	m.Mem.Free(pg)
}

// FinishDaemonPass applies injected daemon-overrun faults to the daemon
// whose body is currently running: when the injector decides this pass
// exceeded its budget, the next wakeup is postponed by the overrun and the
// extra time is charged as daemon interference. Base.StartDaemon calls it
// after every daemon body; with injection disabled it is free.
func (m *Machine) FinishDaemonPass(d *sim.Daemon) {
	if m.Faults == nil {
		return
	}
	if extra := m.Faults.Overrun(d.Interval); extra > 0 {
		d.Postpone(extra)
		m.ChargeTax(extra)
	}
}

// CheckInvariants verifies the machine's global consistency at a quiescent
// point (between events, when no page is legitimately isolated in a daemon
// pass): the memory system's conservation laws hold, every LRU-resident
// page's flags agree with its list and node, no isolated or freed page
// rides a list, and frames in use reconcile with both LRU population and
// installed PTEs. Chaos and fuzz tests run it after injected faults.
func (m *Machine) CheckInvariants() error {
	if err := m.Mem.CheckInvariants(); err != nil {
		return err
	}
	used := 0
	for _, n := range m.Mem.Nodes {
		used += n.UsedFrames()
	}
	onLists := 0
	for _, vec := range m.Vecs {
		frames, err := vec.CheckConsistency()
		if err != nil {
			return fmt.Errorf("machine: node %d: %w", vec.Node, err)
		}
		onLists += frames
	}
	// Shadow copies (non-exclusive tiering) hold frames that are neither
	// LRU-resident nor mapped: used frames reconcile as LRU population
	// plus shadows, and PTEs reconcile against the LRU population alone.
	shadow := m.Mem.ShadowFrames()
	if onLists+shadow != used {
		return fmt.Errorf("machine: LRU population %d + %d shadow frames != %d frames used (leaked isolated page?)", onLists, shadow, used)
	}
	mapped := 0
	for _, as := range m.spaces {
		mapped += as.Mapped()
	}
	if mapped != onLists {
		return fmt.Errorf("machine: PTEs mapped %d != %d LRU-resident frames (leak or double-map)", mapped, onLists)
	}
	return nil
}

// Elapsed returns total virtual time.
func (m *Machine) Elapsed() sim.Duration { return sim.Duration(m.Clock.Now()) }

// Throughput returns completed operations per virtual second.
func (m *Machine) Throughput() float64 {
	secs := m.Elapsed().Seconds()
	if secs == 0 {
		return 0
	}
	return float64(m.Ops) / secs
}
