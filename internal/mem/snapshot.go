package mem

import (
	"fmt"

	"multiclock/internal/sim"
	"multiclock/internal/snapcodec"
)

// Checkpoint serialization for the memory system. The "mem" section carries
// the frame-allocation state (per-node buddy free sets), the event
// counters, the shadow-frame count and the descriptor sequence counter.
// Page descriptors themselves are serialized by the layers that own their
// reachability (the LRU lists, policy state), each as a full
// PageState record keyed by Page.Seq.
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

// encodeTopology writes the tier-hierarchy header of the mem section.
func (s *System) encodeTopology(enc *snapcodec.Encoder) {
	enc.Int(len(s.Top.Tiers))
	for _, ts := range s.Top.Tiers {
		enc.String(ts.Name)
		enc.Bool(ts.Durable)
		enc.Int(len(ts.Nodes))
		for _, f := range ts.Nodes {
			enc.Int(f)
		}
	}
}

// checkTopology decodes the tier-hierarchy header and compares it against
// the target's own topology; any skew is a TopologyMismatchError.
func (s *System) checkTopology(dec *snapcodec.Decoder) error {
	n := dec.Int()
	if dec.Err() != nil {
		return dec.Err()
	}
	if n != len(s.Top.Tiers) {
		return &TopologyMismatchError{Reason: fmt.Sprintf("snapshot has %d tiers, target has %d", n, len(s.Top.Tiers))}
	}
	for _, ts := range s.Top.Tiers {
		name := dec.String()
		durable := dec.Bool()
		nodes := dec.Int()
		if dec.Err() != nil {
			return dec.Err()
		}
		if name != ts.Name || durable != ts.Durable {
			return &TopologyMismatchError{Reason: fmt.Sprintf("snapshot tier %q (durable=%v), target tier %q (durable=%v)",
				name, durable, ts.Name, ts.Durable)}
		}
		if nodes != len(ts.Nodes) {
			return &TopologyMismatchError{Reason: fmt.Sprintf("tier %q has %d nodes in snapshot, %d in target", name, nodes, len(ts.Nodes))}
		}
		for i, want := range ts.Nodes {
			got := dec.Int()
			if dec.Err() != nil {
				return dec.Err()
			}
			if got != want {
				return &TopologyMismatchError{Reason: fmt.Sprintf("tier %q node %d sized %d in snapshot, %d in target", name, i, got, want)}
			}
		}
	}
	return nil
}

// SnapshotState encodes the mem section: the tier-hierarchy header first
// (restore cross-checks it), then the mutable state.
func (s *System) SnapshotState(enc *snapcodec.Encoder) {
	s.encodeTopology(enc)
	enc.U64(s.pageSeq)
	enc.Int(s.shadowFrames)
	s.Counters.encode(enc)
	enc.Int(len(s.Nodes))
	for _, n := range s.Nodes {
		enc.Int(n.Frames)
		n.alloc.snapshot(enc)
	}
}

// RestoreState decodes the mem section into a freshly constructed System of
// the same configuration (all frames free, zero counters).
func (s *System) RestoreState(dec *snapcodec.Decoder) error {
	if err := s.checkTopology(dec); err != nil {
		return err
	}
	s.pageSeq = dec.U64()
	s.shadowFrames = dec.Int()
	s.Counters.decode(dec)
	if n := dec.Int(); n != len(s.Nodes) {
		if dec.Err() != nil {
			return dec.Err()
		}
		return fmt.Errorf("mem: snapshot has %d nodes, system has %d", n, len(s.Nodes))
	}
	for _, n := range s.Nodes {
		if f := dec.Int(); f != n.Frames {
			if dec.Err() != nil {
				return dec.Err()
			}
			return fmt.Errorf("mem: node %d sized %d in snapshot, %d in system", n.ID, f, n.Frames)
		}
		if err := n.alloc.restore(dec); err != nil {
			return err
		}
	}
	return dec.Err()
}

// snapshot encodes the allocator's free sets, ascending per order.
func (b *buddy) snapshot(enc *snapcodec.Encoder) {
	for order := range b.free {
		enc.Int(b.perOrder[order])
		b.free[order].each(func(i int) { enc.U32(uint32(i << order)) })
	}
}

// restore rebuilds the allocator from encoded free sets: everything not in
// one is allocated. The derived state/nfree/perOrder views are recomputed
// rather than trusted from the wire.
func (b *buddy) restore(dec *snapcodec.Decoder) error {
	for i := range b.state {
		b.state[i] = stateAllocated
	}
	for order := range b.free {
		b.free[order].reset()
		b.perOrder[order] = 0
	}
	b.nfree = 0
	for order := 0; order <= MaxOrder; order++ {
		n := dec.Int()
		if dec.Err() != nil {
			return dec.Err()
		}
		if n < 0 || n > b.frames {
			return fmt.Errorf("mem: buddy order-%d free list of %d blocks", order, n)
		}
		for i := 0; i < n; i++ {
			f := FrameID(dec.U32())
			if dec.Err() != nil {
				return dec.Err()
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
	return dec.Err()
}

// encode writes every counter field in declaration order.
func (c *Counters) encode(enc *snapcodec.Encoder) {
	for t := range c.Reads {
		enc.I64(c.Reads[t])
		enc.I64(c.Writes[t])
		enc.I64(c.Allocs[t])
		enc.I64(c.Frees[t])
	}
	enc.I64(c.CacheFiltered)
	enc.I64(c.MinorFaults)
	enc.I64(c.HintFaults)
	enc.I64(c.Promotions)
	enc.I64(c.Demotions)
	enc.I64(c.MigrateFails)
	enc.I64(c.SwapOuts)
	enc.I64(c.SwapIns)
	enc.I64(c.OOMKills)
	enc.I64(c.EmergencyAllocs)
	enc.I64(c.HugeSplits)
	enc.I64(c.PagesScanned)
	enc.I64(int64(c.MigrationBusy))
	enc.I64(c.ShadowPromotes)
	enc.I64(c.ShadowHits)
	enc.I64(c.ShadowDrops)
	enc.I64(c.AdmissionRejects)
}

func (c *Counters) decode(dec *snapcodec.Decoder) {
	for t := range c.Reads {
		c.Reads[t] = dec.I64()
		c.Writes[t] = dec.I64()
		c.Allocs[t] = dec.I64()
		c.Frees[t] = dec.I64()
	}
	c.CacheFiltered = dec.I64()
	c.MinorFaults = dec.I64()
	c.HintFaults = dec.I64()
	c.Promotions = dec.I64()
	c.Demotions = dec.I64()
	c.MigrateFails = dec.I64()
	c.SwapOuts = dec.I64()
	c.SwapIns = dec.I64()
	c.OOMKills = dec.I64()
	c.EmergencyAllocs = dec.I64()
	c.HugeSplits = dec.I64()
	c.PagesScanned = dec.I64()
	c.MigrationBusy = sim.Duration(dec.I64())
	c.ShadowPromotes = dec.I64()
	c.ShadowHits = dec.I64()
	c.ShadowDrops = dec.I64()
	c.AdmissionRejects = dec.I64()
}

// EncodePage writes a full page-descriptor record. CacheHint and list links
// are deliberately excluded: the CPU-cache slab and the LRU lists restore
// their own reverse references.
func EncodePage(enc *snapcodec.Encoder, pg *Page) {
	enc.U64(pg.Seq)
	enc.U32(uint32(pg.Node))
	enc.U32(uint32(pg.Frame))
	enc.U32(uint32(pg.Flags))
	enc.U8(pg.Order)
	enc.U64(pg.VA)
	enc.U32(uint32(pg.Space))
	enc.Bool(pg.Accessed)
	enc.Bool(pg.HWDirty)
	enc.I64(int64(pg.BornAt))
	enc.U8(pg.Hist)
	enc.I64(int64(pg.LastHint))
	enc.U32(pg.Freq)
	enc.I64(int64(pg.LastUse))
	enc.I64(int64(pg.PromotedAt))
	enc.U32(uint32(pg.ShadowNode))
	enc.U32(uint32(pg.ShadowFrame))
}

// RestorePage decodes one page record into a fresh descriptor from the
// slab. The caller registers the returned page under its Seq and re-links
// it into whatever structure referenced it.
func (s *System) RestorePage(dec *snapcodec.Decoder) *Page {
	pg := s.slabPage()
	pg.Seq = dec.U64()
	pg.Node = NodeID(dec.U32())
	pg.Frame = FrameID(dec.U32())
	pg.Flags = PageFlags(dec.U32())
	pg.Order = dec.U8()
	pg.VA = dec.U64()
	pg.Space = int32(dec.U32())
	pg.Accessed = dec.Bool()
	pg.HWDirty = dec.Bool()
	pg.BornAt = sim.Time(dec.I64())
	pg.Hist = dec.U8()
	pg.LastHint = sim.Time(dec.I64())
	pg.Freq = dec.U32()
	pg.LastUse = sim.Time(dec.I64())
	pg.PromotedAt = sim.Time(dec.I64())
	pg.ShadowNode = NodeID(dec.U32())
	pg.ShadowFrame = FrameID(dec.U32())
	return pg
}
