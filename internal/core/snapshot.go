package core

import (
	"fmt"
	"sort"

	"multiclock/internal/machine"
	"multiclock/internal/mem"
	"multiclock/internal/snapcodec"
)

// Checkpoint serialization. The configuration (including Attach's
// deterministic retry defaults) is reproduced by the restore target's
// construction; the daemons' wakeup deadlines and adapted intervals are the
// clock section's business. What travels here is the per-page retry
// bookkeeping (in page-sequence order, see mem.Side.Checkpoint),
// the per-node pressure-episode rate limiter, the policy counters, and the
// nested admission gate when one is configured.

// Checkpoint implements machine.Checkpointer; reading, the policy must
// already be attached to its machine.
func (mc *MultiClock) Checkpoint(c *snapcodec.Codec, reg *machine.PageRegistry) error {
	hasRetries := mc.retries != nil
	c.Bool(&hasRetries)
	if c.Err() == nil && hasRetries != (mc.retries != nil) {
		return fmt.Errorf("core: snapshot retry tracking %v, policy %v", hasRetries, mc.retries != nil)
	}
	err := mc.retries.Checkpoint(c, reg.Live, "retry state", func(st *retryState) {
		snapcodec.U8(c, &st.promoteFails)
		snapcodec.U8(c, &st.demoteFails)
		snapcodec.I64(c, &st.nextTry)
	})
	if err != nil {
		return err
	}

	ids := make([]mem.NodeID, 0, len(mc.lastDemote))
	for id := range mc.lastDemote {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	err = snapcodec.Entries(c, ids, func(id *mem.NodeID) error {
		snapcodec.I64(c, id)
		t := mc.lastDemote[*id]
		snapcodec.I64(c, &t)
		if c.Err() != nil {
			return c.Err()
		}
		if *id < 0 || int(*id) >= len(mc.M.Mem.Nodes) {
			return fmt.Errorf("core: snapshot names unknown node %d", *id)
		}
		mc.lastDemote[*id] = t
		return nil
	})
	if err != nil {
		return err
	}

	for _, p := range []*int64{
		&mc.PromoteAttempts, &mc.PromoteFails, &mc.PromoteRequeues,
		&mc.PromoteDrops, &mc.DemoteRequeues, &mc.DemoteSwapFallbacks,
	} {
		snapcodec.I64(c, p)
	}
	snapcodec.I64(c, &mc.MinIntervalSeen)

	return machine.CheckpointGate(c, reg, mc.cfg.Gate)
}
