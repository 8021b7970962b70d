package mem

import (
	"fmt"

	"multiclock/internal/snapcodec"
)

// Checkpoint serialization for the memory system. The "mem" section carries
// the frame-allocation state (per-node buddy free sets), the event
// counters and the descriptor sequence counter. Page descriptors themselves
// are serialized by the layers that own their reachability (the LRU lists),
// each as a page record (CheckpointPage) keyed by Page.Seq; a record carries
// its page's shadow location, so the shadow table needs no section of its
// own.
//
// The buddy free sets are encoded ascending per order: every allocator
// operation is value-addressed (Alloc pops the minimum block, removeFrom
// names its frame), so the canonical sorted form both hashes stably and
// restores to behaviorally identical state.

// TopologyMismatchError reports a snapshot taken under a different tier
// hierarchy than the restore target's. The snapshot layer converts it to
// its ConfigMismatchError.
type TopologyMismatchError struct{ Reason string }

func (e *TopologyMismatchError) Error() string { return "topology mismatch: " + e.Reason }

// checkpointTopology codes the tier-hierarchy header of the mem section.
// Reading, it compares the snapshot's hierarchy with the system's own; any
// skew is a TopologyMismatchError.
func (s *System) checkpointTopology(c *snapcodec.Codec) error {
	n := len(s.Top.Tiers)
	snapcodec.I64(c, &n)
	if c.Err() != nil {
		return c.Err()
	}
	if n != len(s.Top.Tiers) {
		return &TopologyMismatchError{Reason: fmt.Sprintf("snapshot has %d tiers, target has %d", n, len(s.Top.Tiers))}
	}
	for _, ts := range s.Top.Tiers {
		name, durable, nodes := ts.Name, ts.Durable, len(ts.Nodes)
		c.String(&name)
		c.Bool(&durable)
		snapcodec.I64(c, &nodes)
		if c.Err() != nil {
			return c.Err()
		}
		if name != ts.Name || durable != ts.Durable {
			return &TopologyMismatchError{Reason: fmt.Sprintf("snapshot tier %q (durable=%v), target tier %q (durable=%v)",
				name, durable, ts.Name, ts.Durable)}
		}
		if nodes != len(ts.Nodes) {
			return &TopologyMismatchError{Reason: fmt.Sprintf("tier %q has %d nodes in snapshot, %d in target", name, nodes, len(ts.Nodes))}
		}
		for i, want := range ts.Nodes {
			got := want
			snapcodec.I64(c, &got)
			if c.Err() != nil {
				return c.Err()
			}
			if got != want {
				return &TopologyMismatchError{Reason: fmt.Sprintf("tier %q node %d sized %d in snapshot, %d in target", name, i, got, want)}
			}
		}
	}
	return nil
}

// Checkpoint codes the mem section: the tier-hierarchy header first, then
// the mutable state. Reading, the system is freshly constructed with the
// same configuration (all frames free, zero counters).
func (s *System) Checkpoint(c *snapcodec.Codec) error {
	if err := s.checkpointTopology(c); err != nil {
		return err
	}
	snapcodec.U64(c, &s.pageSeq)
	s.Counters.checkpoint(c)
	n := len(s.Nodes)
	snapcodec.I64(c, &n)
	if c.Err() != nil {
		return c.Err()
	}
	if n != len(s.Nodes) {
		return fmt.Errorf("mem: snapshot has %d nodes, system has %d", n, len(s.Nodes))
	}
	for _, nd := range s.Nodes {
		f := nd.Frames
		snapcodec.I64(c, &f)
		if c.Err() != nil {
			return c.Err()
		}
		if f != nd.Frames {
			return fmt.Errorf("mem: node %d sized %d in snapshot, %d in system", nd.ID, f, nd.Frames)
		}
		if err := nd.alloc.checkpoint(c); err != nil {
			return err
		}
	}
	return c.Err()
}

// checkpoint codes the allocator's free sets, ascending per order. Reading,
// it rebuilds the allocator from them: everything not in one is allocated.
// The derived state/nfree/perOrder views are recomputed rather than trusted
// from the wire.
func (b *buddy) checkpoint(c *snapcodec.Codec) error {
	if !c.Reading() {
		for order := range b.free {
			n := b.perOrder[order]
			snapcodec.I64(c, &n)
			b.free[order].each(func(i int) {
				f := uint32(i << order)
				snapcodec.U32(c, &f)
			})
		}
		return nil
	}
	for i := range b.state {
		b.state[i] = stateAllocated
	}
	for order := range b.free {
		b.free[order].reset()
		b.perOrder[order] = 0
	}
	b.nfree = 0
	for order := 0; order <= MaxOrder; order++ {
		var n int
		snapcodec.I64(c, &n)
		if c.Err() != nil {
			return c.Err()
		}
		if n < 0 || n > b.frames {
			return fmt.Errorf("mem: buddy order-%d free list of %d blocks", order, n)
		}
		for i := 0; i < n; i++ {
			var f FrameID
			snapcodec.U32(c, &f)
			if c.Err() != nil {
				return c.Err()
			}
			if f < 0 || int(f)&(1<<order-1) != 0 || int(f)+(1<<order) > b.frames {
				return fmt.Errorf("mem: buddy snapshot block %d invalid at order %d", f, order)
			}
			for j := int(f); j < int(f)+(1<<order); j++ {
				if b.state[j] != stateAllocated {
					return fmt.Errorf("mem: buddy snapshot frame %d in two free blocks", j)
				}
				b.state[j] = stateTail
			}
			b.insert(f, order)
			b.nfree += 1 << order
		}
	}
	return c.Err()
}

// checkpoint codes every counter field in declaration order.
func (c *Counters) checkpoint(cc *snapcodec.Codec) {
	for t := range c.Reads {
		for _, p := range []*int64{&c.Reads[t], &c.Writes[t], &c.Allocs[t], &c.Frees[t]} {
			snapcodec.I64(cc, p)
		}
	}
	for _, p := range []*int64{
		&c.CacheFiltered, &c.MinorFaults, &c.HintFaults, &c.Promotions,
		&c.Demotions, &c.MigrateFails, &c.SwapOuts, &c.SwapIns, &c.OOMKills,
		&c.EmergencyAllocs, &c.HugeSplits, &c.PagesScanned,
	} {
		snapcodec.I64(cc, p)
	}
	snapcodec.I64(cc, &c.MigrationBusy)
	for _, p := range []*int64{&c.ShadowPromotes, &c.ShadowHits, &c.ShadowDrops, &c.AdmissionRejects} {
		snapcodec.I64(cc, p)
	}
}

// CheckpointPage codes pg's record: the descriptor without CacheHint and
// the list links — the CPU-cache slab and the LRU lists restore their own
// reverse references — followed, when FlagShadow is set, by the shadow
// copy's location. Reading, pg is a fresh descriptor and a shadow read is
// entered in the system's table.
func (s *System) CheckpointPage(c *snapcodec.Codec, pg *Page) {
	snapcodec.U64(c, &pg.Seq)
	snapcodec.U32(c, &pg.Node)
	snapcodec.U32(c, &pg.Frame)
	snapcodec.U32(c, &pg.Flags)
	snapcodec.U8(c, &pg.Order)
	snapcodec.U64(c, &pg.VA)
	snapcodec.U32(c, &pg.Space)
	c.Bool(&pg.Accessed)
	c.Bool(&pg.HWDirty)
	snapcodec.I64(c, &pg.BornAt)
	snapcodec.U8(c, &pg.Hist)
	if !pg.HasShadow() {
		return
	}
	loc := s.shadows.Value(pg)
	snapcodec.U32(c, &loc.node)
	snapcodec.U32(c, &loc.frame)
	if c.Reading() && c.Err() == nil {
		s.setShadow(pg, loc)
	}
}

// RestorePage reads one page record into a fresh descriptor from the slab.
// The caller registers the returned page under its Seq and re-links it into
// whatever structure referenced it.
func (s *System) RestorePage(c *snapcodec.Codec) *Page {
	pg := s.slabPage()
	s.CheckpointPage(c, pg)
	return pg
}
