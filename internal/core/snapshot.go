package core

import (
	"fmt"
	"sort"

	"multiclock/internal/machine"
	"multiclock/internal/mem"
	"multiclock/internal/sim"
	"multiclock/internal/snapcodec"
)

// Checkpoint serialization. The configuration (including Attach's
// deterministic retry defaults) is reproduced by the restore target's
// construction; the daemons' wakeup deadlines and adapted intervals are the
// clock section's business. What travels here is the per-page retry
// bookkeeping (sorted by page sequence — the map is indexed, never iterated),
// the per-node pressure-episode rate limiter, the policy counters, and the
// nested admission gate when one is configured.

// SnapshotState implements machine.StateSnapshotter.
func (mc *MultiClock) SnapshotState(enc *snapcodec.Encoder) error {
	enc.Bool(mc.retries != nil)
	machine.SnapshotPageMap(enc, mc.retries, func(st *retryState) {
		enc.U8(st.promoteFails)
		enc.U8(st.demoteFails)
		enc.I64(int64(st.nextTry))
	})

	ids := make([]mem.NodeID, 0, len(mc.lastDemote))
	for id := range mc.lastDemote {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	enc.Int(len(ids))
	for _, id := range ids {
		enc.I64(int64(id))
		enc.I64(int64(mc.lastDemote[id]))
	}

	for _, v := range []int64{
		mc.PromoteAttempts, mc.PromoteFails, mc.PromoteRequeues,
		mc.PromoteDrops, mc.DemoteRequeues, mc.DemoteSwapFallbacks,
	} {
		enc.I64(v)
	}
	enc.I64(int64(mc.MinIntervalSeen))

	return machine.SnapshotGate(enc, mc.cfg.Gate)
}

// RestoreState implements machine.StateSnapshotter; the policy must already
// be attached to its machine.
func (mc *MultiClock) RestoreState(dec *snapcodec.Decoder, reg *machine.PageRegistry) error {
	if hasRetries := dec.Bool(); dec.Err() == nil && hasRetries != (mc.retries != nil) {
		return fmt.Errorf("core: snapshot retry tracking %v, policy %v", hasRetries, mc.retries != nil)
	}
	err := machine.RestorePageMap(dec, reg, mc.retries, "retry state", func() *retryState {
		return &retryState{promoteFails: dec.U8(), demoteFails: dec.U8(), nextTry: sim.Time(dec.I64())}
	})
	if err != nil {
		return err
	}

	n := dec.Int()
	if dec.Err() != nil {
		return dec.Err()
	}
	for i := 0; i < n; i++ {
		id := mem.NodeID(dec.I64())
		t := sim.Time(dec.I64())
		if dec.Err() != nil {
			return dec.Err()
		}
		if id < 0 || int(id) >= len(mc.M.Mem.Nodes) {
			return fmt.Errorf("core: snapshot names unknown node %d", id)
		}
		mc.lastDemote[id] = t
	}

	for _, p := range []*int64{
		&mc.PromoteAttempts, &mc.PromoteFails, &mc.PromoteRequeues,
		&mc.PromoteDrops, &mc.DemoteRequeues, &mc.DemoteSwapFallbacks,
	} {
		*p = dec.I64()
	}
	mc.MinIntervalSeen = sim.Duration(dec.I64())

	return machine.RestoreGate(dec, reg, mc.cfg.Gate)
}
