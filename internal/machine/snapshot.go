package machine

import (
	"fmt"
	"sort"

	"multiclock/internal/mem"
	"multiclock/internal/pagetable"
	"multiclock/internal/sim"
	"multiclock/internal/snapcodec"
)

// StateSnapshotter is implemented by policies (and nested components such as
// admission gates) that support deterministic checkpoint/restore. Snapshot
// encodes the component's full mutable state at a quiescent point; Restore
// decodes it into a freshly constructed component of identical configuration,
// resolving page references through the registry. Every policy the run layer
// can name implements it (bench's policy table requires it at compile time).
type StateSnapshotter interface {
	SnapshotState(enc *snapcodec.Encoder) error
	RestoreState(dec *snapcodec.Decoder, pages *PageRegistry) error
}

// PageRegistry resolves serialized page references (Page.Seq) back to
// descriptors during restore. Live pages — those on an LRU list at the
// snapshot point — are registered as the LRU section decodes. Policy
// structures may also hold stale references to pages that have since died
// (S3-FIFO queues, Nomad's shadowed list are lazily pruned); those restore to
// "zombie" descriptors: unique per-Seq placeholders carrying the dead-page
// sentinels, so staleness checks (pointer identity, HasShadow, map misses)
// behave exactly as they would on the original dead descriptor.
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
	pg := &mem.Page{
		Seq:         seq,
		Node:        mem.NoNode,
		Frame:       mem.NoFrame,
		Space:       -1,
		ShadowNode:  mem.NoNode,
		ShadowFrame: mem.NoFrame,
	}
	if r.zombies == nil {
		r.zombies = make(map[uint64]*mem.Page)
	}
	r.zombies[seq] = pg
	return pg
}

// SnapshotPageMap encodes a page-indexed policy map in Seq order — such maps
// are indexed, never iterated, during a run, so the canonical order is
// behaviorally exact — calling value to encode each entry after its key.
func SnapshotPageMap[V any](enc *snapcodec.Encoder, m map[*mem.Page]V, value func(V)) {
	pages := make([]*mem.Page, 0, len(m))
	for pg := range m {
		pages = append(pages, pg)
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i].Seq < pages[j].Seq })
	enc.Int(len(pages))
	for _, pg := range pages {
		enc.U64(pg.Seq)
		value(m[pg])
	}
}

// RestorePageMap decodes what SnapshotPageMap wrote into m, calling value to
// decode each entry. Entries of such maps die with their page, so every key
// must name a live page, once; what names the map in errors.
func RestorePageMap[V any](dec *snapcodec.Decoder, reg *PageRegistry, m map[*mem.Page]V, what string, value func() V) error {
	n := dec.Int()
	if n != 0 && m == nil && dec.Err() == nil {
		return fmt.Errorf("machine: snapshot has %d %s entries, policy tracks none", n, what)
	}
	for i := 0; i < n && dec.Err() == nil; i++ {
		seq := dec.U64()
		v := value()
		if dec.Err() != nil {
			break
		}
		pg, ok := reg.Live(seq)
		if _, dup := m[pg]; !ok || dup {
			return fmt.Errorf("machine: snapshot %s names page %d, which is unknown or repeated", what, seq)
		}
		m[pg] = v
	}
	return dec.Err()
}

// SnapshotLRUState encodes every node's LRU vector. At a quiescent point the
// lists enumerate every resident page (machine invariants pin
// used = on-lists + shadow frames), so this section carries all live page
// descriptors.
func (m *Machine) SnapshotLRUState(enc *snapcodec.Encoder) {
	enc.Int(len(m.Vecs))
	for _, v := range m.Vecs {
		v.SnapshotState(enc)
	}
}

// RestoreLRUState rebuilds the LRU vectors on a pristine machine: each
// decoded page gets a fresh descriptor, is registered in the page registry,
// and has its PTEs re-installed into its (pre-existing) address space.
func (m *Machine) RestoreLRUState(dec *snapcodec.Decoder, reg *PageRegistry) error {
	if n := dec.Int(); n != len(m.Vecs) {
		if dec.Err() != nil {
			return dec.Err()
		}
		return fmt.Errorf("machine: snapshot has %d LRU vectors, machine has %d", n, len(m.Vecs))
	}
	var relinkErr error
	newPage := func(d *snapcodec.Decoder) *mem.Page {
		pg := m.Mem.RestorePage(d)
		if relinkErr == nil && d.Err() == nil {
			relinkErr = m.relinkRestored(pg, reg)
		}
		return pg
	}
	for _, v := range m.Vecs {
		if err := v.RestoreState(dec, newPage); err != nil {
			return err
		}
		if relinkErr != nil {
			return relinkErr
		}
	}
	return dec.Err()
}

// relinkRestored validates a decoded resident page and re-establishes its
// external references: the seq registry and its page-table entries. Bounds
// are checked explicitly so a structurally invalid snapshot fails with an
// error instead of a panic deeper in.
func (m *Machine) relinkRestored(pg *mem.Page, reg *PageRegistry) error {
	if int(pg.Order) > mem.MaxOrder {
		return fmt.Errorf("machine: restored page seq %d has order %d", pg.Seq, pg.Order)
	}
	if pg.Node < 0 || int(pg.Node) >= len(m.Mem.Nodes) {
		return fmt.Errorf("machine: restored page seq %d on unknown node %d", pg.Seq, pg.Node)
	}
	if n := m.Mem.Nodes[pg.Node]; pg.Frame < 0 || int(pg.Frame)+pg.Frames() > n.Frames {
		return fmt.Errorf("machine: restored page seq %d spans frames %d+%d beyond node %d", pg.Seq, pg.Frame, pg.Frames(), pg.Node)
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

// SnapshotMachineState encodes the machine scalars, the CPU-cache model and
// per-space swap/geometry state. The LRU section must be restored first: the
// cache references pages by Seq and the per-space mapped counts verify
// against the re-installed PTEs.
func (m *Machine) SnapshotMachineState(enc *snapcodec.Encoder) {
	enc.I64(m.Ops)
	st := m.RNG.State()
	for _, w := range st {
		enc.U64(w)
	}
	enc.I64(int64(m.pendingTax))
	enc.I64(int64(m.daemonWork))
	if m.cache == nil {
		enc.Bool(false)
	} else {
		enc.Bool(true)
		m.cache.snapshot(enc)
	}
	enc.Int(len(m.spaces))
	for _, as := range m.spaces {
		enc.U64(uint64(as.NextVPN()))
		enc.Int(len(as.VMAs()))
		enc.Int(as.Mapped())
		sw := as.SwappedVPNs()
		enc.Int(len(sw))
		for _, v := range sw {
			enc.U64(uint64(v))
		}
	}
}

// RestoreMachineState decodes the machine section. The address spaces and
// their VMAs must already exist (the restore target is constructed by the
// same workload-setup path as the original run); geometry fields are
// verified, not replayed.
func (m *Machine) RestoreMachineState(dec *snapcodec.Decoder, reg *PageRegistry) error {
	m.Ops = dec.I64()
	var st [4]uint64
	for i := range st {
		st[i] = dec.U64()
	}
	if dec.Err() != nil {
		return dec.Err()
	}
	m.RNG.SetState(st)
	m.pendingTax = sim.Duration(dec.I64())
	m.daemonWork = sim.Duration(dec.I64())
	hasCache := dec.Bool()
	if dec.Err() != nil {
		return dec.Err()
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
		if err := m.cache.restore(dec, reg); err != nil {
			return err
		}
	}
	nspaces := dec.Int()
	if dec.Err() != nil {
		return dec.Err()
	}
	if nspaces != len(m.spaces) {
		return fmt.Errorf("machine: snapshot has %d address spaces, machine has %d", nspaces, len(m.spaces))
	}
	for _, as := range m.spaces {
		nextVPN := pagetable.VPN(dec.U64())
		vmas := dec.Int()
		mapped := dec.Int()
		nsw := dec.Int()
		if dec.Err() != nil {
			return dec.Err()
		}
		if nextVPN != as.NextVPN() || vmas != len(as.VMAs()) {
			return fmt.Errorf("machine: space %d geometry differs (snapshot nextVPN %#x/%d VMAs, machine %#x/%d)",
				as.ID, nextVPN, vmas, as.NextVPN(), len(as.VMAs()))
		}
		if mapped != as.Mapped() {
			return fmt.Errorf("machine: space %d has %d mapped PTEs after restore, snapshot recorded %d", as.ID, as.Mapped(), mapped)
		}
		if nsw < 0 {
			return fmt.Errorf("machine: space %d swap population %d", as.ID, nsw)
		}
		for i := 0; i < nsw; i++ {
			vpn := pagetable.VPN(dec.U64())
			if dec.Err() != nil {
				return dec.Err()
			}
			if vpn > pagetable.MaxVPN {
				return fmt.Errorf("machine: space %d swap entry %#x past the address space", as.ID, vpn)
			}
			as.MarkSwapped(vpn)
		}
	}
	return dec.Err()
}

// snapshot encodes the CPU-cache model: hit counters plus the cached
// (page, sub-frame) units in LRU order, tail (least recent) first. Slot
// indexes are not serialized — slot assignment is behaviorally invisible —
// so the encoding is canonical.
func (c *pageCache) snapshot(enc *snapcodec.Encoder) {
	enc.I64(c.Hits)
	enc.I64(c.Misses)
	enc.Int(c.cap - len(c.free))
	for idx := c.tail; idx >= 0; idx = c.nodes[idx].prev {
		k := c.nodes[idx].key
		enc.U64(k.pg.Seq)
		enc.U32(uint32(k.sub))
	}
}

// restore rebuilds the cache into an empty slab: entries decode tail-first
// and push to the front, reproducing the exact LRU order. Cached pages are
// always live (migration, swap and free all invalidate).
func (c *pageCache) restore(dec *snapcodec.Decoder, reg *PageRegistry) error {
	c.Hits = dec.I64()
	c.Misses = dec.I64()
	n := dec.Int()
	if dec.Err() != nil {
		return dec.Err()
	}
	if n < 0 || n > c.cap {
		return fmt.Errorf("machine: snapshot caches %d of %d slots", n, c.cap)
	}
	for i := 0; i < n; i++ {
		seq := dec.U64()
		sub := int32(dec.U32())
		if dec.Err() != nil {
			return dec.Err()
		}
		pg, ok := reg.Live(seq)
		if !ok {
			return fmt.Errorf("machine: CPU cache references non-resident page seq %d", seq)
		}
		idx := c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
		c.nodes[idx].key = cacheKey{pg, sub}
		c.pushFront(idx)
		if sub == 0 {
			if pg.CacheHint != 0 {
				return fmt.Errorf("machine: page seq %d cached twice", seq)
			}
			pg.CacheHint = idx + 1
		} else {
			if c.sub == nil {
				c.sub = make(map[*mem.Page]map[int32]int32, c.cap)
			}
			frames := c.sub[pg]
			if frames == nil {
				frames = make(map[int32]int32, 4)
				c.sub[pg] = frames
			}
			if _, dup := frames[sub]; dup {
				return fmt.Errorf("machine: page seq %d sub-frame %d cached twice", seq, sub)
			}
			frames[sub] = idx
		}
	}
	return dec.Err()
}

// SnapshotGate encodes a nested admission gate (presence-tagged), requiring
// it to support checkpointing when present. Shared by the gated policies.
func SnapshotGate(enc *snapcodec.Encoder, gate PromotionGate) error {
	if gate == nil {
		enc.Bool(false)
		return nil
	}
	enc.Bool(true)
	gs, ok := gate.(StateSnapshotter)
	if !ok {
		return fmt.Errorf("machine: admission gate %s does not support checkpointing", gate.Name())
	}
	return gs.SnapshotState(enc)
}

// RestoreGate decodes the nested gate section, cross-checking presence.
func RestoreGate(dec *snapcodec.Decoder, reg *PageRegistry, gate PromotionGate) error {
	hasGate := dec.Bool()
	if dec.Err() != nil {
		return dec.Err()
	}
	if hasGate != (gate != nil) {
		return fmt.Errorf("machine: snapshot gate presence %v does not match policy", hasGate)
	}
	if !hasGate {
		return nil
	}
	gs, ok := gate.(StateSnapshotter)
	if !ok {
		return fmt.Errorf("machine: admission gate %s does not support checkpointing", gate.Name())
	}
	return gs.RestoreState(dec, reg)
}
