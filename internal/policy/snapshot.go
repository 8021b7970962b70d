package policy

import (
	"fmt"
	"sort"

	"multiclock/internal/machine"
	"multiclock/internal/sim"
	"multiclock/internal/snapcodec"
)

// Checkpoint serialization for the baseline policies. Each Checkpoint
// implements machine.Checkpointer. Per-page side tables (AMP's profiles,
// AutoTiering's hint times, S3-FIFO's state bytes, Nomad's transactions) are
// written in page-sequence order by mem.Side.Checkpoint; the scratch left on
// the descriptor (Hist, FlagPoisoned) rides the page record. Queue slices
// are written in their exact order, including stale entries for dead pages
// (under the Seq each entry was stamped with, whoever owns the descriptor
// now) — lazy invalidation means a stale entry still shapes future wakeups,
// so the restore side materializes zombie descriptors for them via the
// registry.

// Checkpoint codes nothing: static tiering holds no mutable policy state.
func (s *Static) Checkpoint(*snapcodec.Codec, *machine.PageRegistry) error { return nil }

// Checkpoint codes the direct-mapped cache's tag and dirty arrays plus the
// hit/miss tallies.
func (mm *MemoryMode) Checkpoint(c *snapcodec.Codec, _ *machine.PageRegistry) error {
	n := len(mm.tags)
	snapcodec.I64(c, &n)
	if c.Err() != nil {
		return c.Err()
	}
	if n != len(mm.tags) {
		return fmt.Errorf("policy: snapshot has %d memory-mode cache sets, policy %d", n, len(mm.tags))
	}
	for set := range mm.tags {
		snapcodec.I64(c, &mm.tags[set])
		c.Bool(&mm.dirty[set])
	}
	for _, p := range []*int64{&mm.Hits, &mm.Misses, &mm.Writebacks} {
		snapcodec.I64(c, p)
	}
	return c.Err()
}

// Checkpoint codes the random stream, the counter and the per-page
// profiles.
func (a *AMP) Checkpoint(c *snapcodec.Codec, reg *machine.PageRegistry) error {
	a.rng.Checkpoint(c)
	snapcodec.I64(c, &a.Promotions)
	return a.prof.Checkpoint(c, reg.Live, "amp profile", func(p *ampProfile) {
		snapcodec.U32(c, &p.freq)
		snapcodec.I64(c, &p.lastUse)
	})
}

// Checkpoint codes the per-space poisoning cursors (sorted by space ID), the
// counters and the per-page hint times.
func (at *AutoTiering) Checkpoint(c *snapcodec.Codec, reg *machine.PageRegistry) error {
	ids := make([]int32, 0, len(at.cursor))
	for id := range at.cursor {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	err := snapcodec.Entries(c, ids, func(id *int32) error {
		snapcodec.U32(c, id)
		vpn := at.cursor[*id]
		snapcodec.U64(c, &vpn)
		if c.Err() != nil {
			return c.Err()
		}
		if *id < 0 || int(*id) >= len(at.M.Spaces()) {
			return fmt.Errorf("policy: snapshot at-scan cursor names unknown space %d", *id)
		}
		at.cursor[*id] = vpn
		return nil
	})
	if err != nil {
		return err
	}
	for _, p := range []*int64{&at.Promotions, &at.Exchanges, &at.Demotions} {
		snapcodec.I64(c, p)
	}
	return at.lastHint.Checkpoint(c, reg.Live, "at hint time", func(t *sim.Time) { snapcodec.I64(c, t) })
}

// Checkpoint codes the sampling stream, every region's classification and
// open sample counts in (space, base) order, and the counters.
func (th *Thermostat) Checkpoint(c *snapcodec.Codec, _ *machine.PageRegistry) error {
	th.rng.Checkpoint(c)
	err := snapcodec.Entries(c, th.sortedRegions(), func(key *regionKey) error {
		snapcodec.U32(c, &key.space)
		snapcodec.U64(c, &key.base)
		st, known := th.regions[*key]
		if !known {
			st = new(regionStats)
		}
		snapcodec.I64(c, &st.faults)
		snapcodec.I64(c, &st.sampled)
		c.Bool(&st.demoted)
		if c.Err() != nil {
			return c.Err()
		}
		if (c.Reading() && known) || key.space < 0 {
			return fmt.Errorf("policy: snapshot names thermostat region %d/%#x twice or in no space", key.space, key.base)
		}
		th.regions[*key] = st
		return nil
	})
	if err != nil {
		return err
	}
	snapcodec.I64(c, &th.Demotions)
	snapcodec.I64(c, &th.Promotions)
	return c.Err()
}

// Checkpoint codes the gate's window (nested inside a gated policy's
// section).
func (g *BandwidthGate) Checkpoint(c *snapcodec.Codec, _ *machine.PageRegistry) error {
	snapcodec.I64(c, &g.windowStart)
	snapcodec.I64(c, &g.busyAtStart)
	snapcodec.I64(c, &g.Admits)
	snapcodec.I64(c, &g.Rejects)
	return c.Err()
}

// Checkpoint codes the counter and the admission gate.
func (nb *Nimble) Checkpoint(c *snapcodec.Codec, reg *machine.PageRegistry) error {
	snapcodec.I64(c, &nb.Promotions)
	return machine.CheckpointGate(c, reg, nb.gate)
}

// Checkpoint codes the in-flight transactions, the shadowed list and the
// counters.
func (nd *Nomad) Checkpoint(c *snapcodec.Codec, reg *machine.PageRegistry) error {
	err := nd.inflight.Checkpoint(c, reg.Live, "nomad transaction", c.Bool)
	if err != nil {
		return err
	}
	if err := checkpointPageRefs(c, reg, &nd.shadowed); err != nil {
		return err
	}
	for _, p := range []*int64{&nd.TxBegins, &nd.TxCommits, &nd.TxAborts, &nd.FreeDemotes} {
		snapcodec.I64(c, p)
	}
	return c.Err()
}

// Checkpoint codes the per-page state bytes, every PM node's queue triple
// and the counters.
func (s *S3FIFO) Checkpoint(c *snapcodec.Codec, reg *machine.PageRegistry) error {
	err := s.state.Checkpoint(c, reg.Live, "s3fifo state", func(v *uint8) { snapcodec.U8(c, v) })
	if err != nil {
		return err
	}
	nq := len(s.queues)
	snapcodec.I64(c, &nq)
	if c.Err() != nil {
		return c.Err()
	}
	if nq != len(s.queues) {
		return fmt.Errorf("policy: snapshot has %d s3fifo queue sets, policy %d", nq, len(s.queues))
	}
	for i, q := range s.queues {
		has := q != nil
		c.Bool(&has)
		if c.Err() != nil {
			return c.Err()
		}
		if has != (q != nil) {
			return fmt.Errorf("policy: snapshot s3fifo queue presence on node %d does not match policy", i)
		}
		if q == nil {
			continue
		}
		for _, list := range []*[]pageRef{&q.small, &q.main, &q.ghost} {
			if err := checkpointPageRefs(c, reg, list); err != nil {
				return err
			}
		}
	}
	for _, p := range []*int64{&s.SmallToMain, &s.GhostHits, &s.Promotions} {
		snapcodec.I64(c, p)
	}
	return c.Err()
}

// checkpointPageRefs codes one page reference list in its exact order, each
// entry as the Seq it was stamped with — for a stale entry, the dead page's.
// Reading, it refills the list, resolving dead references to zombie
// descriptors.
func checkpointPageRefs(c *snapcodec.Codec, reg *machine.PageRegistry, refs *[]pageRef) error {
	n := len(*refs)
	snapcodec.I64(c, &n)
	if c.Err() != nil {
		return c.Err()
	}
	if n < 0 || n > c.Remaining()/8 {
		return fmt.Errorf("policy: snapshot claims %d page references in %d bytes", n, c.Remaining())
	}
	if !c.Reading() {
		for i := range *refs {
			snapcodec.U64(c, &(*refs)[i].seq)
		}
		return nil
	}
	*refs = (*refs)[:0]
	for i := 0; i < n; i++ {
		var seq uint64
		snapcodec.U64(c, &seq)
		*refs = append(*refs, refTo(reg.Resolve(seq)))
	}
	return c.Err()
}

// The policies' own conformance is checked where they are listed
// (bench.policyTable); the gate is nested, so it is pinned here.
var _ machine.Checkpointer = (*BandwidthGate)(nil)
