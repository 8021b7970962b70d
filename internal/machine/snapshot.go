package machine

import (
	"fmt"

	"multiclock/internal/mem"
	"multiclock/internal/pagetable"
	"multiclock/internal/snapcodec"
)

// Checkpointer is implemented by policies (and nested components such as
// admission gates) that support deterministic checkpoint/restore.
// Checkpoint codes the component's full mutable state at a quiescent point.
// Reading, the component is freshly constructed with identical
// configuration and resolves page references through the registry; writing,
// pages is nil. Every policy the run layer can name implements it (bench's
// policy table requires it at compile time).
type Checkpointer interface {
	Checkpoint(c *snapcodec.Codec, pages *PageRegistry) error
}

// PageRegistry resolves serialized page references (Page.Seq) back to
// descriptors during restore. Live pages — those on an LRU list at the
// snapshot point — are registered as the LRU section decodes. Policy
// structures may also hold stale references to pages that have since died
// (S3-FIFO queues, Nomad's shadowed list are lazily pruned); those restore to
// "zombie" descriptors: unique per-Seq placeholders carrying the dead-page
// sentinels, so staleness checks (pointer identity, HasShadow, side-table
// misses) behave exactly as they would on the original dead descriptor.
type PageRegistry struct {
	live    map[uint64]*mem.Page
	zombies map[uint64]*mem.Page
}

// NewPageRegistry returns an empty registry.
func NewPageRegistry() *PageRegistry {
	return &PageRegistry{live: make(map[uint64]*mem.Page)}
}

// AddLive registers a restored resident page under its Seq.
func (r *PageRegistry) AddLive(pg *mem.Page) error {
	if _, dup := r.live[pg.Seq]; dup {
		return fmt.Errorf("machine: two live pages share seq %d", pg.Seq)
	}
	r.live[pg.Seq] = pg
	return nil
}

// Live returns the live page registered under seq.
func (r *PageRegistry) Live(seq uint64) (*mem.Page, bool) {
	pg, ok := r.live[seq]
	return pg, ok
}

// Resolve returns the live page for seq, or (for a reference to a page that
// died before the snapshot) a zombie descriptor — created once per Seq, so
// aliased references stay aliased.
func (r *PageRegistry) Resolve(seq uint64) *mem.Page {
	if pg, ok := r.live[seq]; ok {
		return pg
	}
	if pg, ok := r.zombies[seq]; ok {
		return pg
	}
	pg := &mem.Page{Seq: seq, Node: mem.NoNode, Frame: mem.NoFrame, Space: -1}
	if r.zombies == nil {
		r.zombies = make(map[uint64]*mem.Page)
	}
	r.zombies[seq] = pg
	return pg
}

// CheckpointLRU codes every node's LRU vector. At a quiescent point the
// lists enumerate every resident page (machine invariants pin
// used = on-lists + shadow frames), so this section carries all live page
// descriptors. Reading, it rebuilds the vectors of a pristine machine: each
// page gets a fresh descriptor, is registered in the page registry, and has
// its PTEs re-installed into its (pre-existing) address space.
func (m *Machine) CheckpointLRU(c *snapcodec.Codec, reg *PageRegistry) error {
	n := len(m.Vecs)
	snapcodec.I64(c, &n)
	if c.Err() != nil {
		return c.Err()
	}
	if n != len(m.Vecs) {
		return fmt.Errorf("machine: snapshot has %d LRU vectors, machine has %d", n, len(m.Vecs))
	}
	held := &frameClaims{owned: make([][]bool, len(m.Mem.Nodes))}
	page := func(pg *mem.Page) (*mem.Page, error) {
		if !c.Reading() {
			m.Mem.CheckpointPage(c, pg)
			return pg, nil
		}
		pg = m.Mem.RestorePage(c)
		if err := c.Err(); err != nil {
			return nil, err
		}
		return pg, m.relinkRestored(pg, reg, held)
	}
	for _, v := range m.Vecs {
		if err := v.Checkpoint(c, page); err != nil {
			return err
		}
	}
	return c.Err()
}

// frameClaims records, per node, which frames the restored pages hold.
type frameClaims struct {
	owned [][]bool
}

// claim marks frames [f, f+n) of node as held by one restored page. They must
// lie on the node, be allocated and be held by no other page: otherwise the
// page's eventual free would double-free a frame.
func (fc *frameClaims) claim(m *Machine, node mem.NodeID, f mem.FrameID, n int) bool {
	if node < 0 || int(node) >= len(fc.owned) {
		return false
	}
	nd := m.Mem.Nodes[node]
	if f < 0 || int(f)+n > nd.Frames {
		return false
	}
	if fc.owned[node] == nil {
		fc.owned[node] = make([]bool, nd.Frames)
	}
	for i := f; i < f+mem.FrameID(n); i++ {
		if fc.owned[node][i] || !nd.Allocated(i) {
			return false
		}
		fc.owned[node][i] = true
	}
	return true
}

// relinkRestored validates a decoded resident page and re-establishes its
// external references: the seq registry and its page-table entries. Bounds
// are checked explicitly so a structurally invalid snapshot fails with an
// error instead of a panic deeper in.
func (m *Machine) relinkRestored(pg *mem.Page, reg *PageRegistry, held *frameClaims) error {
	if int(pg.Order) > mem.MaxOrder {
		return fmt.Errorf("machine: restored page seq %d has order %d", pg.Seq, pg.Order)
	}
	if pg.Node < 0 || int(pg.Node) >= len(m.Mem.Nodes) {
		return fmt.Errorf("machine: restored page seq %d on unknown node %d", pg.Seq, pg.Node)
	}
	if n := m.Mem.Nodes[pg.Node]; pg.Frame < 0 || int(pg.Frame)+pg.Frames() > n.Frames {
		return fmt.Errorf("machine: restored page seq %d spans frames %d+%d beyond node %d", pg.Seq, pg.Frame, pg.Frames(), pg.Node)
	}
	if !held.claim(m, pg.Node, pg.Frame, pg.Frames()) {
		return fmt.Errorf("machine: restored page seq %d holds frames %d+%d of node %d that are free or held twice", pg.Seq, pg.Frame, pg.Frames(), pg.Node)
	}
	if pg.HasShadow() {
		// Only base pages take shadow copies.
		if node, frame := m.Mem.Shadow(pg); pg.Order != 0 || !held.claim(m, node, frame, 1) {
			return fmt.Errorf("machine: restored page seq %d has an invalid shadow frame %d on node %d", pg.Seq, frame, node)
		}
	}
	if err := reg.AddLive(pg); err != nil {
		return err
	}
	// Every LRU-resident page is mapped at a quiescent point (invariant:
	// mapped PTEs == LRU population).
	if pg.Space < 0 || int(pg.Space) >= len(m.spaces) {
		return fmt.Errorf("machine: restored page seq %d in unknown space %d", pg.Seq, pg.Space)
	}
	as := m.spaces[pg.Space]
	base := pagetable.VPNOf(pg.VA)
	if base+pagetable.VPN(pg.Frames())-1 > pagetable.MaxVPN {
		return fmt.Errorf("machine: restored page seq %d maps past the address space", pg.Seq)
	}
	for i := 0; i < pg.Frames(); i++ {
		if as.Lookup(base+pagetable.VPN(i)) != nil {
			return fmt.Errorf("machine: restored PTE %#x already populated", base+pagetable.VPN(i))
		}
	}
	if pg.IsHuge() {
		as.InstallRange(base, pg, pg.Frames())
	} else {
		as.Install(base, pg)
	}
	return nil
}

// CheckpointMachine codes the machine scalars, the CPU-cache model and
// per-space swap/geometry state. Reading, the LRU section must be restored
// first: the cache references pages by Seq and the per-space mapped counts
// verify against the re-installed PTEs. The address spaces and their VMAs
// already exist (the restore target is constructed by the same
// workload-setup path as the original run); geometry fields are verified,
// not replayed.
func (m *Machine) CheckpointMachine(c *snapcodec.Codec, reg *PageRegistry) error {
	snapcodec.I64(c, &m.Ops)
	m.RNG.Checkpoint(c)
	snapcodec.I64(c, &m.pendingTax)
	snapcodec.I64(c, &m.daemonWork)
	hasCache := m.cache != nil
	c.Bool(&hasCache)
	if c.Err() != nil {
		return c.Err()
	}
	if m.pendingTax < 0 || m.daemonWork < 0 {
		// Both sum non-negative costs; a negative tax would run the clock
		// backwards on the next access.
		return fmt.Errorf("machine: snapshot carries negative daemon charges (tax %d, work %d)", m.pendingTax, m.daemonWork)
	}
	if hasCache != (m.cache != nil) {
		return fmt.Errorf("machine: snapshot CPU cache presence %v, machine %v", hasCache, m.cache != nil)
	}
	if hasCache {
		if err := m.cache.checkpoint(c, reg); err != nil {
			return err
		}
	}
	nspaces := len(m.spaces)
	snapcodec.I64(c, &nspaces)
	if c.Err() != nil {
		return c.Err()
	}
	if nspaces != len(m.spaces) {
		return fmt.Errorf("machine: snapshot has %d address spaces, machine has %d", nspaces, len(m.spaces))
	}
	for _, as := range m.spaces {
		nextVPN, vmas, mapped := as.NextVPN(), len(as.VMAs()), as.Mapped()
		var sw []pagetable.VPN
		if !c.Reading() {
			sw = as.SwappedVPNs()
		}
		nsw := len(sw)
		snapcodec.U64(c, &nextVPN)
		snapcodec.I64(c, &vmas)
		snapcodec.I64(c, &mapped)
		snapcodec.I64(c, &nsw)
		if c.Err() != nil {
			return c.Err()
		}
		if nextVPN != as.NextVPN() || vmas != len(as.VMAs()) {
			return fmt.Errorf("machine: space %d geometry differs (snapshot nextVPN %#x/%d VMAs, machine %#x/%d)",
				as.ID, nextVPN, vmas, as.NextVPN(), len(as.VMAs()))
		}
		if mapped != as.Mapped() {
			return fmt.Errorf("machine: space %d has %d mapped PTEs after restore, snapshot recorded %d", as.ID, as.Mapped(), mapped)
		}
		if !c.Reading() {
			for i := range sw {
				snapcodec.U64(c, &sw[i])
			}
			continue
		}
		if nsw < 0 {
			return fmt.Errorf("machine: space %d swap population %d", as.ID, nsw)
		}
		for i := 0; i < nsw; i++ {
			var vpn pagetable.VPN
			snapcodec.U64(c, &vpn)
			if c.Err() != nil {
				return c.Err()
			}
			if vpn > pagetable.MaxVPN {
				return fmt.Errorf("machine: space %d swap entry %#x past the address space", as.ID, vpn)
			}
			as.MarkSwapped(vpn)
		}
	}
	return c.Err()
}

// checkpoint codes the CPU-cache model: hit counters plus the cached
// (page, sub-frame) units in LRU order, tail (least recent) first. Slot
// indexes are not serialized — slot assignment is behaviorally invisible —
// so the encoding is canonical. Reading, it rebuilds the cache into an
// empty slab: entries push to the front in the order read, reproducing the
// exact LRU order. Cached pages are always live (migration, swap and free
// all invalidate).
func (pc *pageCache) checkpoint(c *snapcodec.Codec, reg *PageRegistry) error {
	snapcodec.I64(c, &pc.Hits)
	snapcodec.I64(c, &pc.Misses)
	n := pc.cap - len(pc.free)
	snapcodec.I64(c, &n)
	if !c.Reading() {
		for idx := pc.tail; idx >= 0; idx = pc.nodes[idx].prev {
			k := pc.nodes[idx].key
			snapcodec.U64(c, &k.pg.Seq)
			snapcodec.U32(c, &k.sub)
		}
		return nil
	}
	if c.Err() != nil {
		return c.Err()
	}
	if n < 0 || n > pc.cap {
		return fmt.Errorf("machine: snapshot caches %d of %d slots", n, pc.cap)
	}
	for i := 0; i < n; i++ {
		var seq uint64
		var sub int32
		snapcodec.U64(c, &seq)
		snapcodec.U32(c, &sub)
		if c.Err() != nil {
			return c.Err()
		}
		pg, ok := reg.Live(seq)
		if !ok {
			return fmt.Errorf("machine: CPU cache references non-resident page seq %d", seq)
		}
		idx := pc.free[len(pc.free)-1]
		pc.free = pc.free[:len(pc.free)-1]
		pc.nodes[idx].key = cacheKey{pg, sub}
		pc.pushFront(idx)
		if sub == 0 {
			if pg.CacheHint != 0 {
				return fmt.Errorf("machine: page seq %d cached twice", seq)
			}
			pg.CacheHint = idx + 1
		} else {
			if pc.sub == nil {
				pc.sub = make(map[*mem.Page]map[int32]int32, pc.cap)
			}
			frames := pc.sub[pg]
			if frames == nil {
				frames = make(map[int32]int32, 4)
				pc.sub[pg] = frames
			}
			if _, dup := frames[sub]; dup {
				return fmt.Errorf("machine: page seq %d sub-frame %d cached twice", seq, sub)
			}
			frames[sub] = idx
		}
	}
	return c.Err()
}

// CheckpointGate codes a nested admission gate (presence-tagged), requiring
// it to support checkpointing when present. Shared by the gated policies.
func CheckpointGate(c *snapcodec.Codec, reg *PageRegistry, gate PromotionGate) error {
	hasGate := gate != nil
	c.Bool(&hasGate)
	if c.Err() != nil {
		return c.Err()
	}
	if hasGate != (gate != nil) {
		return fmt.Errorf("machine: snapshot gate presence %v does not match policy", hasGate)
	}
	if !hasGate {
		return nil
	}
	gs, ok := gate.(Checkpointer)
	if !ok {
		return fmt.Errorf("machine: admission gate %s does not support checkpointing", gate.Name())
	}
	return gs.Checkpoint(c, reg)
}
