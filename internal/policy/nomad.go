package policy

import (
	"multiclock/internal/lru"
	"multiclock/internal/machine"
	"multiclock/internal/mem"
	"multiclock/internal/sim"
)

// Nomad implements Nomad-style non-exclusive memory tiering (transactional
// page migration, arXiv:2401.13154) on MULTI-CLOCK's selection machinery:
// pages qualify for promotion through the same two-touch promote list, but
// promotion retains the PM source frame as a shadow copy instead of freeing
// it. While the page stays clean, demoting it back is free — a remap onto
// the still-valid shadow with no page copy. The copy itself is transactional
// and spans two daemon wakeups: a write landing between begin and commit
// aborts the transaction and the page falls back to an ordinary exclusive
// migration.
type Nomad struct {
	machine.Base
	interval sim.Duration

	// inflight holds each begun-but-uncommitted promotion transaction —
	// begun at a daemon wakeup, committed at the next — as whether a write
	// has aborted it since. Entries die at commit, abort, or page death.
	inflight *mem.Side[bool]

	// shadowed is a lazily-invalidated FIFO of pages that committed a
	// shadow promotion, in commit order: the reclaim scan for PM pressure
	// walks it oldest-first. Entries whose shadow is already gone (write,
	// ordinary migration, or page death — shadowGone) are skipped and
	// compacted away.
	shadowed []pageRef

	// Transaction stats for the bake-off report.
	TxBegins    int64
	TxCommits   int64
	TxAborts    int64
	FreeDemotes int64

	// Reusable candidate buffers; promoteBuf and demoteBuf stay distinct
	// because makeRoom nests inside the promotion loop.
	promoteBuf []*mem.Page
	demoteBuf  []*mem.Page
}

// NewNomad returns the Nomad-style non-exclusive tiering policy, its
// promotion daemon waking every interval.
func NewNomad(interval sim.Duration) *Nomad {
	return &Nomad{interval: interval}
}

// Name implements machine.Policy.
func (nd *Nomad) Name() string { return "nomad" }

// Attach starts the per-node scanning daemon.
func (nd *Nomad) Attach(m *machine.Machine) {
	nd.Base.Attach(m)
	nd.inflight = mem.NewSide[bool](m.Mem)
	nd.StartNodeDaemons("nomad-scan", nd.interval, func(node mem.NodeID, _ *sim.Daemon) { nd.scan(node) })
}

// Access watches writes: a write aborts any in-flight promotion transaction
// on the page (the replica being copied is stale) and invalidates a
// committed shadow (the retained copy no longer matches). Keeping the
// invalidation here means HasShadow implies the page is clean relative to
// its shadow, so shadow demotions never need a dirtiness check.
func (nd *Nomad) Access(pg *mem.Page, write bool) sim.Duration {
	if write {
		if aborted := nd.inflight.Get(pg); aborted != nil {
			*aborted = true
		}
		if pg.HasShadow() {
			nd.M.Mem.DropShadow(pg)
		}
	}
	return nd.Base.Access(pg, write)
}

// scan is one daemon wakeup: MULTI-CLOCK aging, then the two-phase
// promotion protocol over the promote list.
func (nd *Nomad) scan(node mem.NodeID) {
	m := nd.M
	vec := m.Vecs[node]
	stats := vec.ScanCycle(scanBatch)
	nd.ScanTax(stats)

	tier := m.Mem.Nodes[node].Tier
	candidates := vec.AppendPromote(nd.promoteBuf[:0], -1)
	nd.promoteBuf = candidates[:0]
	nd.QueueDepth(len(candidates))
	if tier == m.Mem.FastestTier() {
		// Top tier: promote-list residents are simply the hottest pages
		// where they are.
		for _, pg := range candidates {
			lru.ClearPromote(pg)
			vec.Putback(pg)
		}
		if m.Mem.Nodes[node].UnderLow() {
			nd.makeRoom(tier)
		}
		return
	}

	for _, pg := range candidates {
		tx := nd.inflight.Get(pg)
		switch {
		case pg.IsHuge():
			// Shadow frames cover base pages only; compound pages take the
			// ordinary exclusive migration directly.
			lru.ClearPromote(pg)
			if !promoteUp(m, pg, nd.makeRoom) {
				vec.Putback(pg)
			}
		case tx == nil:
			// Phase 1: begin the copy. The page keeps serving accesses
			// from PM while the replica is "in flight" until the next
			// wakeup; RequeuePromote re-arms the referenced flag so the
			// wait survives the intervening scan cycle's decay.
			nd.inflight.Put(pg)
			nd.TxBegins++
			lru.RequeuePromote(pg)
			vec.Putback(pg)
		default:
			// Phase 2: commit, or abort if a write raced the copy.
			aborted := *tx
			nd.inflight.Delete(pg)
			lru.ClearPromote(pg)
			if aborted {
				nd.TxAborts++
				// The replica is stale; retry as an ordinary exclusive
				// migration (a fresh copy with nothing left to invalidate).
				if !promoteUp(m, pg, nd.makeRoom) {
					vec.Putback(pg)
				}
				continue
			}
			if nd.promoteShadow(pg) {
				nd.TxCommits++
			} else {
				// Destination full or pinned: drop to the active list like
				// a failed MULTI-CLOCK promotion.
				vec.Putback(pg)
			}
		}
	}

	// Amortized compaction: the shadowed FIFO only shrinks during PM
	// pressure, so trim dead entries once they dominate.
	if live := m.Mem.ShadowFrames(); len(nd.shadowed) > 2*live+64 {
		kept := nd.shadowed[:0]
		for _, ref := range nd.shadowed {
			if !shadowGone(ref) {
				kept = append(kept, ref)
			}
		}
		nd.shadowed = kept
	}
}

// shadowGone reports that a shadowed entry no longer names a page holding a
// shadow: its descriptor was reissued, or the page gave the shadow up.
func shadowGone(ref pageRef) bool { return ref.stale() || !ref.pg.HasShadow() }

// promoteShadow commits one transactional promotion: the page moves one
// tier up and its source frame stays behind as the shadow.
func (nd *Nomad) promoteShadow(pg *mem.Page) bool {
	dst, ok := dstAbove(nd.M, pg, nd.makeRoom)
	if !ok {
		return false
	}
	// A page climbing its second tier still holds the shadow of its first
	// promotion, two tiers down. That copy is no longer the demotion
	// target, so give it back before retaining the new source frame.
	// (Never the case with only two tiers: a page below the fastest tier
	// cannot hold a shadow there.)
	nd.M.Mem.DropShadow(pg)
	if !nd.M.PromoteShadowIsolated(pg, dst) {
		return false
	}
	nd.shadowed = append(nd.shadowed, refTo(pg))
	return true
}

// makeRoom demotes cold pages from pressured nodes of tier t — for free
// when the victim still holds a valid shadow (Nomad's headline win: a clean
// shadowed page demotes by remap alone), by ordinary migration otherwise.
func (nd *Nomad) makeRoom(t mem.Tier) {
	m := nd.M
	nd.demoteBuf = relieveTier(m, t, nd.demoteBuf, func(victim *mem.Page) bool {
		if m.DemoteShadowIsolated(victim) {
			nd.FreeDemotes++
			return true
		}
		return false
	})
}

// Pressure relieves pressure on a tier that can demote by demotion, and on
// any other tier by giving shadow frames back — the non-exclusive copies
// are strictly expendable.
func (nd *Nomad) Pressure(node mem.NodeID) {
	t := nd.M.Mem.Nodes[node].Tier
	if demotable(nd.M, t) {
		nd.makeRoom(t)
		return
	}
	nd.reclaimShadows(node)
}

// reclaimShadows drops shadow copies held on the pressured node,
// oldest-committed first, until it climbs back above its low watermark.
func (nd *Nomad) reclaimShadows(node mem.NodeID) {
	m := nd.M
	n := m.Mem.Nodes[node]
	kept := nd.shadowed[:0]
	for _, ref := range nd.shadowed {
		if shadowGone(ref) {
			continue
		}
		if at, _ := m.Mem.Shadow(ref.pg); at == node && n.UnderLow() {
			m.Mem.DropShadow(ref.pg)
			continue
		}
		kept = append(kept, ref)
	}
	nd.shadowed = kept
}

// DirectReclaim frees shadow frames before touching any mapped page: they
// cost nothing to give up.
func (nd *Nomad) DirectReclaim(frames int) int {
	freed := 0
	kept := nd.shadowed[:0]
	for _, ref := range nd.shadowed {
		if shadowGone(ref) {
			continue
		}
		if freed < frames {
			nd.M.Mem.DropShadow(ref.pg)
			freed++
			continue
		}
		kept = append(kept, ref)
	}
	nd.shadowed = kept
	if freed < frames {
		freed += nd.Base.DirectReclaim(frames - freed)
	}
	return freed
}
