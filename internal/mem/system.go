package mem

import (
	"fmt"
	"math"

	"multiclock/internal/fault"
	"multiclock/internal/sim"
)

// Config describes the physical memory layout of a machine. Its costs are
// the tier specs' over the calibrated scalar costs, and its watermarks the
// kernel's proportions of each node's frames.
type Config struct {
	// DRAMNodes and PMNodes give the frame count of each node of the
	// respective tier; e.g. two sockets with DRAM + hot-plugged PM would
	// be DRAMNodes: {N, N}, PMNodes: {M, M}. They describe the classic
	// two-tier hierarchy; Topology supersedes them when set.
	DRAMNodes []int
	PMNodes   []int

	// Topology, when non-nil, gives the full tier hierarchy (any depth,
	// per-tier latencies, optional durable last tier) and wins over
	// DRAMNodes/PMNodes.
	Topology *Topology
}

// DefaultConfig returns a small two-node machine: one DRAM node and one PM
// node with a 1:4 capacity ratio, the shape of the paper's testbed scaled to
// simulation size.
func DefaultConfig() Config {
	return Config{DRAMNodes: []int{1024}, PMNodes: []int{4096}}
}

// topology resolves the hierarchy a Config describes: an explicit Topology
// verbatim, else the builtin DRAM/PM pair.
func (cfg Config) topology() Topology {
	if cfg.Topology != nil {
		return *cfg.Topology
	}
	if len(cfg.DRAMNodes) == 0 {
		panic("mem: need at least one DRAM node")
	}
	return DefaultTopology(cfg.DRAMNodes, cfg.PMNodes)
}

// System is the whole physical memory of the simulated machine.
type System struct {
	Nodes    []*Node
	Lat      LatencyModel
	Counters Counters

	// Top is the tier hierarchy the system was built from, fastest tier
	// first (tier t is Top.Tiers[t]).
	Top Topology

	// Faults optionally injects deterministic hardware/kernel faults into
	// migration and allocation. Nil (the default) injects nothing and adds
	// no work to any path.
	Faults *fault.Injector

	// tiers caches node IDs per tier in ID order for allocation fallback.
	// A durable last tier has an (always empty) slot, so every Tier of the
	// topology indexes safely.
	tiers [][]NodeID

	// birthOrder caches the frame-backed tiers in fast-to-slow order: the
	// default allocation placement.
	birthOrder []Tier

	// descFree is the LIFO of descriptors Free and Split have released;
	// newPage reissues them before it touches the slab, so a machine at its
	// resident set's high-water mark births pages without allocating
	// (DESIGN.md §7.4). It is host state: which address a page lives at is
	// invisible to the simulation, so no snapshot carries it. descSlab
	// bump-allocates the refill in chunks (births beyond the high-water
	// mark, huge-page splits, RestorePage) so those do not pay one heap
	// allocation per descriptor.
	//
	// The contract recycling rests on: a *Page is valid from its birth to
	// Free (a compound page's, to Split). Whatever may outlive the page
	// holds (pointer, Seq) and treats the reference as live only while
	// pg.Seq still equals the stamped Seq.
	// slabs holds every chunk in allocation order, so a descriptor's chunk
	// (Page.slab) and its place in it are the slot a Side indexes.
	descFree []*Page
	descSlab []Page
	slabs    []*[descChunk]Page

	// shadows holds the location of every shadow copy (non-exclusive
	// tiering) under the page that carries FlagShadow: frames that are
	// allocated but neither LRU-resident nor mapped. nshadows counts them, so
	// machine-level invariant checks can reconcile against it.
	shadows  *Side[frameRef]
	nshadows int

	// pageSeq is the next descriptor birth sequence number (see Page.Seq).
	pageSeq uint64

	clock *sim.Clock
}

// descChunk is the descriptor slab chunk size in pages.
const descChunk = 1024

// slabPage returns a never-used zeroed descriptor from the slab.
func (s *System) slabPage() *Page {
	if len(s.descSlab) == 0 {
		if len(s.slabs) == math.MaxUint16 {
			panic("mem: descriptor slab exhausted: Page.slab holds 65 535 chunks")
		}
		chunk := new([descChunk]Page)
		s.slabs = append(s.slabs, chunk)
		s.descSlab = chunk[:]
	}
	pg := &s.descSlab[0]
	s.descSlab = s.descSlab[1:]
	pg.slab = uint16(len(s.slabs))
	return pg
}

// newPage returns a zeroed descriptor — the most recently freed one, else a
// fresh one from the slab — with a new Seq, the unmapped sentinel Space -1
// and its birth timestamp stamped.
func (s *System) newPage() *Page {
	var pg *Page
	if n := len(s.descFree); n > 0 {
		pg = s.descFree[n-1]
		s.descFree = s.descFree[:n-1]
		*pg = Page{slab: pg.slab}
	} else {
		pg = s.slabPage()
	}
	pg.Seq = s.pageSeq
	s.pageSeq++
	pg.Space = -1
	pg.BornAt = s.clock.Now()
	return pg
}

// NewSystem builds the node set from cfg. The clock supplies timestamps for
// page birth and telemetry. Nodes are created tier by tier in topology
// order, so node IDs ascend from the fastest tier down.
func NewSystem(clock *sim.Clock, cfg Config) *System {
	top := cfg.topology()
	if err := top.Validate(); err != nil {
		panic("mem: " + err.Error())
	}
	s := &System{Top: top, clock: clock, tiers: make([][]NodeID, len(top.Tiers))}
	s.shadows = NewSide[frameRef](s)
	s.Lat = top.Latency(scalarLatency())
	s.Counters = newCounters(top)
	for t, ts := range top.Tiers {
		for socket, frames := range ts.Nodes {
			id := NodeID(len(s.Nodes))
			s.Nodes = append(s.Nodes, newNode(id, Tier(t), frames, socket))
			s.tiers[t] = append(s.tiers[t], id)
		}
		if !ts.Durable {
			s.birthOrder = append(s.birthOrder, Tier(t))
		}
	}
	return s
}

// Clock returns the virtual clock the system stamps events with.
func (s *System) Clock() *sim.Clock { return s.clock }

// NumTiers returns the number of tiers in the hierarchy, including a
// durable last tier.
func (s *System) NumTiers() int { return len(s.tiers) }

// TierName returns tier t's report label ("DRAM", "CXL", "PM", "SSD").
func (s *System) TierName(t Tier) string { return s.Counters.display(int(t)) }

// FastestTier returns the highest-performing tier (always tier 0).
func (s *System) FastestTier() Tier { return 0 }

// SlowestTier returns the slowest frame-backed tier — the last tier pages
// can actually live on; a durable swap tier below it is not included.
func (s *System) SlowestTier() Tier { return s.birthOrder[len(s.birthOrder)-1] }

// Above returns the tier one step faster than t, if any.
func (s *System) Above(t Tier) (Tier, bool) {
	if t <= 0 {
		return 0, false
	}
	return t - 1, true
}

// Below returns the tier one step slower than t, if any. A durable last
// tier is a valid result: it has no nodes, so PickNodeBelow reports NoNode
// there and the caller falls back to swap-out.
func (s *System) Below(t Tier) (Tier, bool) {
	if int(t)+1 >= len(s.tiers) {
		return t, false
	}
	return t + 1, true
}

// TierNodes returns the node IDs belonging to tier t.
func (s *System) TierNodes(t Tier) []NodeID { return s.tiers[t] }

// TierFree returns total free frames across tier t.
func (s *System) TierFree(t Tier) int {
	total := 0
	for _, id := range s.tiers[t] {
		total += s.Nodes[id].FreeFrames()
	}
	return total
}

// TierCapacity returns total frames across tier t.
func (s *System) TierCapacity(t Tier) int {
	total := 0
	for _, id := range s.tiers[t] {
		total += s.Nodes[id].Frames
	}
	return total
}

// AllocOn allocates a page on a specific node, respecting the emergency
// reserve unless emergency is set (migration targets may not dip below min).
// Returns nil when the node cannot satisfy the request.
func (s *System) AllocOn(id NodeID, emergency bool) *Page {
	return s.AllocBlockOn(id, 0, emergency)
}

// AllocBlockOn allocates a compound page of 2^order frames on a specific
// node (order MaxOrder = one transparent huge page). Returns nil when no
// suitably sized and aligned free block exists — fragmentation can fail a
// huge allocation even with plenty of free frames, exactly as with real
// THP.
func (s *System) AllocBlockOn(id NodeID, order int, emergency bool) *Page {
	n := s.Nodes[id]
	if !emergency {
		if n.FreeFrames() <= n.WM.Min+(1<<order)-1 {
			return nil
		}
		// An injected allocation storm denies ordinary allocations on
		// nodes already near their watermarks, forcing the caller onto
		// the tier-fallback (and ultimately emergency-reserve) path.
		if s.Faults.AllocDenied(n.FreeFrames() < n.WM.Low+(1<<order)) {
			return nil
		}
	}
	dipped := emergency && n.FreeFrames() <= n.WM.Min+(1<<order)-1
	f := n.alloc.Alloc(order)
	if f == NoFrame {
		return nil
	}
	if dipped {
		// The allocation succeeded only because the emergency reserve was
		// opened: account the dip (watermark health telemetry).
		s.Counters.EmergencyAllocs++
	}
	s.Counters.Allocs[n.Tier] += 1 << order
	pg := s.newPage()
	pg.Node = id
	pg.Frame = f
	pg.Order = uint8(order)
	return pg
}

// Alloc allocates a page following the tier fallback order: every node of
// the first tier, then the next tier, and so on — new pages are "born in"
// DRAM while it lasts (§II-A). Returns nil only when the whole machine is
// exhausted.
func (s *System) Alloc(order []Tier) *Page {
	for _, t := range order {
		for _, id := range s.tiers[t] {
			if pg := s.AllocOn(id, false); pg != nil {
				return pg
			}
		}
	}
	// Last resort: dip into reserves anywhere, lowest tier first so the
	// reserve of the scarce tier survives longest.
	for i := len(order) - 1; i >= 0; i-- {
		for _, id := range s.tiers[order[i]] {
			if pg := s.AllocOn(id, true); pg != nil {
				return pg
			}
		}
	}
	return nil
}

// DefaultOrder is the standard two-tier birth placement: DRAM first, then
// PM. Topology-aware callers use System.BirthOrder instead.
func DefaultOrder() []Tier { return []Tier{TierDRAM, TierPM} }

// BirthOrder returns the frame-backed tiers in fast-to-slow order: the
// standard birth placement for any hierarchy. Callers must not mutate the
// returned slice.
func (s *System) BirthOrder() []Tier { return s.birthOrder }

// Free releases the page's frames — and any shadow copy still held, so a
// shadowed page's death cannot leak its second frame. The page must already
// be off all LRU lists and unmapped. The descriptor must not be used
// afterwards: the next birth reissues it under a new Seq.
func (s *System) Free(pg *Page) {
	if pg.OnList() {
		panic("mem: freeing page still on an LRU list")
	}
	if pg.HasShadow() {
		s.DropShadow(pg)
	}
	n := s.Nodes[pg.Node]
	n.alloc.Free(pg.Frame, int(pg.Order))
	s.Counters.Frees[n.Tier] += 1 << pg.Order
	pg.Frame = NoFrame
	pg.Node = NoNode
	s.descFree = append(s.descFree, pg)
}

// MigrationResult reports the outcome of a Migrate call.
type MigrationResult struct {
	OK       bool
	From, To NodeID
	// Cost is the daemon-side copy time; Tax is the application-side
	// charge. The caller accounts both to the right timelines.
	Cost sim.Duration
	Tax  sim.Duration
}

// Migrate moves pg to node dst: allocates a destination frame (allowed to
// use reserves — migration is how pressure is relieved), frees the source
// frame, and updates the descriptor in place. The page must be isolated
// from the LRU (FlagIsolated) and not unevictable. Counters record the
// direction as promotion or demotion by tier order.
func (s *System) Migrate(pg *Page, dst NodeID) MigrationResult {
	return s.migrate(pg, dst, false)
}

// migrate is Migrate, and with keepShadow PromoteWithShadow: the source
// frame stays allocated as the page's shadow copy instead of being freed.
func (s *System) migrate(pg *Page, dst NodeID, keepShadow bool) MigrationResult {
	if pg.Flags.Has(FlagUnevictable) {
		s.Counters.MigrateFails++
		return MigrationResult{}
	}
	switch {
	case !pg.Flags.Has(FlagIsolated):
		panic("mem: migrating a page that is not isolated from the LRU")
	case pg.OnList():
		panic("mem: migrating a page still on a list")
	case keepShadow && pg.IsHuge():
		panic("mem: shadow-promoting a compound page")
	case keepShadow && pg.HasShadow():
		panic("mem: shadow-promoting a page that already has a shadow")
	}
	src := pg.Node
	if src == dst {
		return MigrationResult{OK: true, From: src, To: dst}
	}
	// Injected transient faults: the page is pinned for the duration of
	// this attempt, or the destination node denies the frame allocation
	// despite free memory. Both leave the page intact on its source frame
	// (still isolated, owned by the caller) exactly like a natural
	// destination-full failure.
	if s.Faults.MigrationPinned() || s.Faults.TargetDenied() {
		s.Counters.MigrateFails++
		return MigrationResult{From: src, To: dst}
	}
	dn := s.Nodes[dst]
	f := dn.alloc.Alloc(int(pg.Order))
	if f == NoFrame {
		s.Counters.MigrateFails++
		return MigrationResult{From: src, To: dst}
	}
	sn := s.Nodes[src]
	if keepShadow {
		// The source frame is not freed: it becomes the shadow. Only the
		// destination allocation enters the conservation ledger, so
		// allocs - frees still equals frames in use (primary + shadow).
		s.setShadow(pg, frameRef{src, pg.Frame})
		s.Counters.ShadowPromotes++
	} else {
		// An ordinary migration ends any non-exclusive residency: the
		// shadow protocol only spans promotion → next write or shadow
		// demotion, so a page moving by the regular path gives its
		// retained copy back.
		s.DropShadow(pg)
		sn.alloc.Free(pg.Frame, int(pg.Order))
		s.Counters.Frees[sn.Tier] += 1 << pg.Order
	}
	s.Counters.Allocs[dn.Tier] += 1 << pg.Order
	pg.Node = dst
	pg.Frame = f

	// A compound page copies all its frames; the remap/TLB tax stays per
	// mapping (one PMD entry for a huge page).
	cost := s.Lat.PageCopy[sn.Tier][dn.Tier] * sim.Duration(pg.Frames())
	s.Counters.MigrationBusy += cost
	switch {
	case dn.Tier < sn.Tier:
		s.Counters.Promotions += int64(pg.Frames())
	case dn.Tier > sn.Tier:
		s.Counters.Demotions += int64(pg.Frames())
	}
	return MigrationResult{OK: true, From: src, To: dst, Cost: cost, Tax: s.Lat.MigrationTax}
}

// Split breaks an isolated compound page into base-page descriptors over
// the same frames (split_huge_page): the block's frames stay allocated but
// are now owned by 512 independent pages that can migrate, swap and age
// individually. The compound descriptor is released like a freed one: it
// must not be used afterwards, and a later birth reissues it under a new Seq.
func (s *System) Split(pg *Page) []*Page {
	if !pg.Flags.Has(FlagIsolated) {
		panic("mem: splitting a page that is not isolated")
	}
	if !pg.IsHuge() {
		panic("mem: splitting a base page")
	}
	out := make([]*Page, pg.Frames())
	for i := range out {
		bp := s.newPage()
		bp.Node = pg.Node
		bp.Frame = pg.Frame + FrameID(i)
		bp.Flags = pg.Flags &^ FlagIsolated
		bp.VA = pg.VA + uint64(i)*PageSize
		bp.Space = pg.Space
		bp.Accessed = pg.Accessed
		bp.HWDirty = pg.HWDirty
		bp.BornAt = pg.BornAt
		out[i] = bp
	}
	s.Counters.HugeSplits++
	// Neutralize the compound descriptor and recycle it. It goes on the free
	// list only now, so none of the base pages above can have taken it.
	pg.Frame = NoFrame
	pg.Node = NoNode
	pg.Space = -1
	s.descFree = append(s.descFree, pg)
	return out
}

// PickNode selects the tier-t node with the most free frames, or NoNode if
// the tier has no free frame at all. Used to choose migration destinations.
func (s *System) PickNode(t Tier) NodeID {
	best, bestFree := NoNode, 0
	for _, id := range s.tiers[t] {
		if f := s.Nodes[id].FreeFrames(); f > bestFree {
			best, bestFree = id, f
		}
	}
	return best
}

// PickNodeBelow selects the emptiest node of the tier below t (the
// demotion destination), or NoNode when t is the slowest frame-backed tier
// (or the tier below is the durable swap tier, which has no nodes).
func (s *System) PickNodeBelow(t Tier) NodeID {
	down, ok := s.Below(t)
	if !ok {
		return NoNode
	}
	return s.PickNode(down)
}

func (s *System) String() string {
	out := ""
	for _, n := range s.Nodes {
		out += fmt.Sprintf("%v\n", n)
	}
	return out
}
