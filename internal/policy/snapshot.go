package policy

import (
	"fmt"
	"sort"

	"multiclock/internal/machine"
	"multiclock/internal/pagetable"
	"multiclock/internal/sim"
	"multiclock/internal/snapcodec"
)

// Checkpoint serialization for the baseline policies. Maps indexed by page
// pointer are written sorted by page sequence (they are never iterated during
// a run, so the canonical order is behaviorally exact); queue slices are
// written in their exact order, including stale entries for dead pages (under
// the Seq each entry was stamped with, whoever owns the descriptor now) —
// lazy invalidation means a stale entry still shapes future wakeups, so the
// restore side materializes zombie descriptors for them via the registry.
// Per-page scratch the policies keep on the descriptor (Hist, LastHint,
// FlagPoisoned, Freq, LastUse) rides the page codec, not these sections.

// snapshotRNG and restoreRNG carry a policy's private random stream.
func snapshotRNG(enc *snapcodec.Encoder, r *sim.RNG) {
	for _, w := range r.State() {
		enc.U64(w)
	}
}

func restoreRNG(dec *snapcodec.Decoder, r *sim.RNG) {
	var st [4]uint64
	for i := range st {
		st[i] = dec.U64()
	}
	if dec.Err() == nil {
		r.SetState(st)
	}
}

// --- Static ---

// SnapshotState implements machine.StateSnapshotter: static tiering holds no
// mutable policy state.
func (s *Static) SnapshotState(enc *snapcodec.Encoder) error { return nil }

// RestoreState implements machine.StateSnapshotter.
func (s *Static) RestoreState(dec *snapcodec.Decoder, reg *machine.PageRegistry) error {
	return nil
}

// --- MemoryMode ---

// SnapshotState implements machine.StateSnapshotter: the direct-mapped
// cache's tag and dirty arrays plus the hit/miss tallies.
func (mm *MemoryMode) SnapshotState(enc *snapcodec.Encoder) error {
	enc.Int(len(mm.tags))
	for set, tag := range mm.tags {
		enc.I64(tag)
		enc.Bool(mm.dirty[set])
	}
	for _, v := range []int64{mm.Hits, mm.Misses, mm.Writebacks} {
		enc.I64(v)
	}
	return nil
}

// RestoreState implements machine.StateSnapshotter.
func (mm *MemoryMode) RestoreState(dec *snapcodec.Decoder, reg *machine.PageRegistry) error {
	if n := dec.Int(); n != len(mm.tags) {
		if dec.Err() != nil {
			return dec.Err()
		}
		return fmt.Errorf("policy: snapshot has %d memory-mode cache sets, policy %d", n, len(mm.tags))
	}
	for set := range mm.tags {
		mm.tags[set] = dec.I64()
		mm.dirty[set] = dec.Bool()
	}
	for _, p := range []*int64{&mm.Hits, &mm.Misses, &mm.Writebacks} {
		*p = dec.I64()
	}
	return dec.Err()
}

// --- AMP ---

// SnapshotState implements machine.StateSnapshotter.
func (a *AMP) SnapshotState(enc *snapcodec.Encoder) error {
	snapshotRNG(enc, a.rng)
	enc.I64(a.Promotions)
	return nil
}

// RestoreState implements machine.StateSnapshotter.
func (a *AMP) RestoreState(dec *snapcodec.Decoder, reg *machine.PageRegistry) error {
	restoreRNG(dec, a.rng)
	a.Promotions = dec.I64()
	return dec.Err()
}

// --- AutoTiering ---

// SnapshotState implements machine.StateSnapshotter: the per-space poisoning
// cursors (sorted by space ID) and the counters.
func (at *AutoTiering) SnapshotState(enc *snapcodec.Encoder) error {
	ids := make([]int32, 0, len(at.cursor))
	for id := range at.cursor {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	enc.Int(len(ids))
	for _, id := range ids {
		enc.U32(uint32(id))
		enc.U64(uint64(at.cursor[id]))
	}
	for _, v := range []int64{at.Promotions, at.Exchanges, at.Demotions} {
		enc.I64(v)
	}
	return nil
}

// RestoreState implements machine.StateSnapshotter.
func (at *AutoTiering) RestoreState(dec *snapcodec.Decoder, reg *machine.PageRegistry) error {
	n := dec.Int()
	if dec.Err() != nil {
		return dec.Err()
	}
	for i := 0; i < n; i++ {
		id := int32(dec.U32())
		vpn := pagetable.VPN(dec.U64())
		if dec.Err() != nil {
			return dec.Err()
		}
		if id < 0 || int(id) >= len(at.M.Spaces()) {
			return fmt.Errorf("policy: snapshot at-scan cursor names unknown space %d", id)
		}
		at.cursor[id] = vpn
	}
	for _, p := range []*int64{&at.Promotions, &at.Exchanges, &at.Demotions} {
		*p = dec.I64()
	}
	return dec.Err()
}

// --- Thermostat ---

// SnapshotState implements machine.StateSnapshotter: the sampling stream,
// every region's classification and open sample counts in (space, base)
// order, and the counters.
func (th *Thermostat) SnapshotState(enc *snapcodec.Encoder) error {
	snapshotRNG(enc, th.rng)
	keys := th.sortedRegions()
	enc.Int(len(keys))
	for _, key := range keys {
		st := th.regions[key]
		enc.U32(uint32(key.space))
		enc.U64(uint64(key.base))
		enc.Int(st.faults)
		enc.Int(st.sampled)
		enc.Bool(st.demoted)
	}
	enc.I64(th.Demotions)
	enc.I64(th.Promotions)
	return nil
}

// RestoreState implements machine.StateSnapshotter.
func (th *Thermostat) RestoreState(dec *snapcodec.Decoder, reg *machine.PageRegistry) error {
	restoreRNG(dec, th.rng)
	n := dec.Int()
	if dec.Err() != nil {
		return dec.Err()
	}
	for i := 0; i < n; i++ {
		key := regionKey{space: int32(dec.U32()), base: pagetable.VPN(dec.U64())}
		st := &regionStats{faults: dec.Int(), sampled: dec.Int(), demoted: dec.Bool()}
		if dec.Err() != nil {
			return dec.Err()
		}
		if _, dup := th.regions[key]; dup || key.space < 0 {
			return fmt.Errorf("policy: snapshot names thermostat region %d/%#x twice or in no space", key.space, key.base)
		}
		th.regions[key] = st
	}
	th.Demotions = dec.I64()
	th.Promotions = dec.I64()
	return dec.Err()
}

// --- BandwidthGate ---

// SnapshotState implements machine.StateSnapshotter (nested inside a gated
// policy's section).
func (g *BandwidthGate) SnapshotState(enc *snapcodec.Encoder) error {
	enc.I64(int64(g.windowStart))
	enc.I64(int64(g.busyAtStart))
	enc.I64(g.Admits)
	enc.I64(g.Rejects)
	return nil
}

// RestoreState implements machine.StateSnapshotter.
func (g *BandwidthGate) RestoreState(dec *snapcodec.Decoder, reg *machine.PageRegistry) error {
	g.windowStart = sim.Time(dec.I64())
	g.busyAtStart = sim.Duration(dec.I64())
	g.Admits = dec.I64()
	g.Rejects = dec.I64()
	return dec.Err()
}

// --- Nimble ---

// SnapshotState implements machine.StateSnapshotter.
func (nb *Nimble) SnapshotState(enc *snapcodec.Encoder) error {
	enc.I64(nb.Promotions)
	return machine.SnapshotGate(enc, nb.gate)
}

// RestoreState implements machine.StateSnapshotter.
func (nb *Nimble) RestoreState(dec *snapcodec.Decoder, reg *machine.PageRegistry) error {
	nb.Promotions = dec.I64()
	if dec.Err() != nil {
		return dec.Err()
	}
	return machine.RestoreGate(dec, reg, nb.gate)
}

// --- Nomad ---

// SnapshotState implements machine.StateSnapshotter.
func (nd *Nomad) SnapshotState(enc *snapcodec.Encoder) error {
	machine.SnapshotPageMap(enc, nd.inflight, func(tx *nomadTx) { enc.Bool(tx.aborted) })
	snapshotPageRefs(enc, nd.shadowed)
	for _, v := range []int64{nd.TxBegins, nd.TxCommits, nd.TxAborts, nd.FreeDemotes} {
		enc.I64(v)
	}
	return nil
}

// RestoreState implements machine.StateSnapshotter.
func (nd *Nomad) RestoreState(dec *snapcodec.Decoder, reg *machine.PageRegistry) error {
	err := machine.RestorePageMap(dec, reg, nd.inflight, "nomad transaction", func() *nomadTx {
		return &nomadTx{aborted: dec.Bool()}
	})
	if err != nil {
		return err
	}
	if nd.shadowed, err = restorePageRefs(dec, reg, nd.shadowed); err != nil {
		return err
	}
	for _, p := range []*int64{&nd.TxBegins, &nd.TxCommits, &nd.TxAborts, &nd.FreeDemotes} {
		*p = dec.I64()
	}
	return dec.Err()
}

// --- S3FIFO ---

// SnapshotState implements machine.StateSnapshotter.
func (s *S3FIFO) SnapshotState(enc *snapcodec.Encoder) error {
	machine.SnapshotPageMap(enc, s.state, enc.U8)
	enc.Int(len(s.queues))
	for _, q := range s.queues {
		enc.Bool(q != nil)
		if q == nil {
			continue
		}
		for _, list := range [][]pageRef{q.small, q.main, q.ghost} {
			snapshotPageRefs(enc, list)
		}
	}
	for _, v := range []int64{s.SmallToMain, s.GhostHits, s.Promotions} {
		enc.I64(v)
	}
	return nil
}

// RestoreState implements machine.StateSnapshotter.
func (s *S3FIFO) RestoreState(dec *snapcodec.Decoder, reg *machine.PageRegistry) error {
	if err := machine.RestorePageMap(dec, reg, s.state, "s3fifo state", dec.U8); err != nil {
		return err
	}
	nq := dec.Int()
	if dec.Err() != nil {
		return dec.Err()
	}
	if nq != len(s.queues) {
		return fmt.Errorf("policy: snapshot has %d s3fifo queue sets, policy %d", nq, len(s.queues))
	}
	for i, q := range s.queues {
		has := dec.Bool()
		if dec.Err() != nil {
			return dec.Err()
		}
		if has != (q != nil) {
			return fmt.Errorf("policy: snapshot s3fifo queue presence on node %d does not match policy", i)
		}
		if q == nil {
			continue
		}
		for _, list := range []*[]pageRef{&q.small, &q.main, &q.ghost} {
			var err error
			if *list, err = restorePageRefs(dec, reg, *list); err != nil {
				return err
			}
		}
	}
	for _, p := range []*int64{&s.SmallToMain, &s.GhostHits, &s.Promotions} {
		*p = dec.I64()
	}
	return dec.Err()
}

// snapshotPageRefs encodes one page reference list in its exact order, each
// entry as the Seq it was stamped with — for a stale entry, the dead page's.
func snapshotPageRefs(enc *snapcodec.Encoder, refs []pageRef) {
	enc.Int(len(refs))
	for _, ref := range refs {
		enc.U64(ref.seq)
	}
}

// restorePageRefs decodes what snapshotPageRefs wrote into buf, resolving
// dead references to zombie descriptors.
func restorePageRefs(dec *snapcodec.Decoder, reg *machine.PageRegistry, buf []pageRef) ([]pageRef, error) {
	n := dec.Int()
	if dec.Err() != nil {
		return buf, dec.Err()
	}
	if n < 0 || n > dec.Remaining()/8 {
		return buf, fmt.Errorf("policy: snapshot claims %d page references in %d bytes", n, dec.Remaining())
	}
	buf = buf[:0]
	for i := 0; i < n; i++ {
		buf = append(buf, refTo(reg.Resolve(dec.U64())))
	}
	return buf, dec.Err()
}

// The policies' own conformance is checked where they are listed
// (bench.policyTable); the gate is nested, so it is pinned here.
var _ machine.StateSnapshotter = (*BandwidthGate)(nil)
