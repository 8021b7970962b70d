package policy

import (
	"multiclock/internal/lru"
	"multiclock/internal/machine"
	"multiclock/internal/mem"
)

// scanBatch is the pages examined per daemon wakeup by the CLOCK-scanning
// baselines (Nimble, Nomad, S3-FIFO) and the cap on victims per node per
// demotion episode: the paper's 1024 (§V-C), MULTI-CLOCK's own batch, so the
// bake-off compares selection rules at one operating point.
const scanBatch = 1024

// Tier-relative helpers shared by the migrating baselines. Policies in this
// package never name tiers: they navigate the machine's hierarchy with
// FastestTier/Above/Below, so the same code drives a two-tier DRAM/PM
// machine and a four-tier dram/cxl/pm/ssd one.

// demotable reports whether tier t has a frame-backed tier below it — i.e.
// whether pressure on t can be relieved by demotion rather than swap.
func demotable(m *machine.Machine, t mem.Tier) bool {
	down, ok := m.Mem.Below(t)
	return ok && len(m.Mem.TierNodes(down)) > 0
}

// pickVictimNode returns the tier-t node with free frames above its min
// reserve, or NoNode. Shared by the migrating baselines.
func pickVictimNode(m *machine.Machine, t mem.Tier) mem.NodeID {
	id := m.Mem.PickNode(t)
	if id == mem.NoNode {
		return id
	}
	if m.Mem.Nodes[id].UnderMin() {
		return mem.NoNode
	}
	return id
}

// dstAbove picks a promotion destination one tier above pg: a node with
// free frames above its reserve, demoting cold pages from that tier (via
// the policy's makeRoom) once when every node is at its reserve.
func dstAbove(m *machine.Machine, pg *mem.Page, makeRoom func(mem.Tier)) (mem.NodeID, bool) {
	up, ok := m.Mem.Above(m.Mem.Tier(pg))
	if !ok {
		return mem.NoNode, false
	}
	dst := pickVictimNode(m, up)
	if dst == mem.NoNode {
		makeRoom(up)
		dst = pickVictimNode(m, up)
	}
	return dst, dst != mem.NoNode
}

// promoteUp exchanges one isolated page into the tier above it, demoting
// cold pages from that tier first if no free frame exists (Nimble's
// two-sided exchange, reduced to its placement effect).
func promoteUp(m *machine.Machine, pg *mem.Page, makeRoom func(mem.Tier)) bool {
	dst, ok := dstAbove(m, pg, makeRoom)
	return ok && m.MigrateIsolated(pg, dst)
}

// relieveTier is the consolidated kswapd-style demotion scan every
// migrating baseline shares: for each node of tier t under its high
// watermark, rebalance the recency lists and demote up to scanBatch cold
// victims one tier down — or swap them out when the tier below has no free
// frame (or is the durable swap tier). tryFirst, when non-nil, gets the
// first shot at each victim (Nomad's free shadow demotion); a true return
// consumes the victim. The returned slice is the reusable victim buffer.
func relieveTier(m *machine.Machine, t mem.Tier, buf []*mem.Page, tryFirst func(*mem.Page) bool) []*mem.Page {
	for _, id := range m.Mem.TierNodes(t) {
		n := m.Mem.Nodes[id]
		if !n.UnderHigh() {
			continue
		}
		vec := m.Vecs[id]
		need := n.WM.High - n.FreeFrames()
		if need > scanBatch {
			need = scanBatch
		}
		vec.BalanceActive(1, scanBatch)
		victims := vec.AppendDemoteCandidates(buf[:0], need)
		for _, victim := range victims {
			if tryFirst != nil && tryFirst(victim) {
				continue
			}
			dst := m.Mem.PickNodeBelow(t)
			if dst == mem.NoNode || !m.MigrateIsolated(victim, dst) {
				m.SwapOut(victim)
			}
		}
		buf = victims[:0]
	}
	return buf
}

// recencyDemoter is the base of the baselines whose demotion side is the
// stock recency CLOCK (Nimble, S3-FIFO): machine.Base plus kswapd-style
// relief of a pressured tier from its inactive lists.
type recencyDemoter struct {
	machine.Base
	// demoteBuf stays distinct from any promote buffer: makeRoom nests
	// inside the promotion loops via promoteUp.
	demoteBuf []*mem.Page
}

// Attach attaches the base and puts every node on the stock CLOCK ladder:
// these baselines age pages the way Linux does, with no promote list.
func (r *recencyDemoter) Attach(m *machine.Machine) {
	r.Base.Attach(m)
	for _, v := range m.Vecs {
		v.Ladder = lru.StockLadder
	}
}

// makeRoom demotes cold pages (by the recency lists) from pressured nodes
// of tier t one tier down.
func (r *recencyDemoter) makeRoom(t mem.Tier) {
	r.demoteBuf = relieveTier(r.M, t, r.demoteBuf, nil)
}

// Pressure reacts to allocation pressure on a demotion-capable tier like
// kswapd.
func (r *recencyDemoter) Pressure(node mem.NodeID) {
	if t := r.M.Mem.Nodes[node].Tier; demotable(r.M, t) {
		r.makeRoom(t)
	}
}

// pageRef is a page reference that may outlive its page: the descriptor
// together with the Seq it carried when the reference was taken. A freed
// descriptor is reissued to the next birth (mem.System.Free), so the pointer
// alone can come to name another page; the Seq cannot. The lazily pruned
// queues (S3-FIFO's small/main/ghost, Nomad's shadowed) hold these.
type pageRef struct {
	pg  *mem.Page
	seq uint64
}

func refTo(pg *mem.Page) pageRef { return pageRef{pg, pg.Seq} }

// stale reports that the descriptor now belongs to a later page. A reference
// that is not stale may still name a page that died and has not been reborn;
// the holder's own test for that (a state-map miss, HasShadow) is unchanged.
func (r pageRef) stale() bool { return r.pg.Seq != r.seq }
