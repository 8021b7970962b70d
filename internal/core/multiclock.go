// Package core implements MULTI-CLOCK, the paper's dynamic tiering policy:
// per-node CLOCK-based page aging extended with a promote list that captures
// both recency and frequency (a page must be referenced while already
// active-referenced to qualify — i.e. recently accessed more than once), a
// kpromoted daemon that periodically migrates promote-list pages to the
// DRAM tier, and a kswapd-style demotion path that moves cold DRAM pages to
// PM under watermark pressure (paper §III, §IV).
package core

import (
	"multiclock/internal/lru"
	"multiclock/internal/machine"
	"multiclock/internal/mem"
	"multiclock/internal/sim"
)

// Config tunes MULTI-CLOCK.
type Config struct {
	// ScanInterval is kpromoted's wakeup period. The paper evaluates
	// 100 ms–60 s and selects 1 s (§V-E).
	ScanInterval sim.Duration
	// ScanBatch is the number of pages examined per wakeup; the paper
	// sets 1024 (§V-C).
	ScanBatch int
	// PromoteMax caps promotions per wakeup. Zero or negative promotes
	// every selected page, which is the paper's behaviour ("promotes all
	// the pages it selected", §III-B); positive values throttle.
	PromoteMax int
	// WriteBias, when positive, implements the §VII discussion extension:
	// a dirty page on the promote list is preferred for promotion by
	// ordering (writes to PM are the most expensive accesses). Zero keeps
	// the paper's read/write-oblivious behaviour.
	WriteBias bool

	// Gate, when non-nil, is a promotion admission controller consulted
	// once per candidate before any migration work is spent (TierBPF-style
	// bandwidth control). A rejected candidate drops to the active list of
	// its tier exactly like an exhausted retry; it may requalify through
	// the ordinary two-touch path once the gate readmits.
	Gate *machine.BandwidthGate
}

// DefaultConfig returns the paper's operating point: 1 s interval, 1024
// pages per scan, unlimited promotions.
func DefaultConfig() Config {
	return Config{
		ScanInterval: 1 * sim.Second,
		ScanBatch:    1024,
		PromoteMax:   -1,
	}
}

const (
	// reclaimCluster is the minimum batch one pressure episode tries to
	// free, mirroring the kernel's clustered reclaim so kswapd work is
	// amortized.
	reclaimCluster = 32

	// demoteRounds bounds how many batch rounds one pressure episode may
	// run. Two rounds age pages (spend hardware bit, then referenced flag)
	// without forcibly evicting pages that are hot between episodes;
	// genuinely cold pages isolate on the first pass.
	demoteRounds = 2

	// minActiveRatio floors the active:inactive balance ratio. The kernel's
	// √(10·n) formula evaluates near 1 for our MiB-scale nodes, but those
	// nodes stand in for the paper's ~100 GiB tiers where the ratio is ≈30;
	// without the floor, tiny-node balancing deactivates the hot set every
	// pressure episode.
	minActiveRatio = 3

	// promoteRetryMax bounds how many times a promote-list page whose
	// migration failed transiently (pinned page, destination allocation
	// denial) is requeued onto the promote list — with exponential backoff
	// in virtual time, starting at ScanInterval — before dropping to the
	// active list for good. demoteRetryMax bounds how many times a demotion
	// candidate whose downward migration failed is returned to its inactive
	// list before demotion falls back to swapping it out. Both apply only
	// when the machine injects faults; a fault-free machine keeps the
	// paper's behaviour (drop to active immediately, §III-C; swap at once).
	promoteRetryMax = 3
	demoteRetryMax  = 2
)

// retryState is the per-page bookkeeping behind bounded retries: how many
// times each direction of migration has transiently failed, and (for
// promotions) the virtual instant before which the page just waits on the
// promote list instead of spending another attempt.
type retryState struct {
	promoteFails uint8
	demoteFails  uint8
	nextTry      sim.Time
}

// MultiClock is the policy object. Create with New, pass to machine.New.
type MultiClock struct {
	machine.Base
	cfg Config

	// retries tracks per-page transient-failure state for the bounded
	// requeue/backoff paths. Non-nil only on a machine that injects faults
	// (retries are enabled exactly then); entries die with the page or when
	// it finally migrates or falls back.
	retries *mem.Side[retryState]

	// lastDemote rate-limits pressure episodes to one per node per
	// virtual instant: a promotion burst would otherwise run many
	// episodes back to back with no application accesses in between to
	// re-reference hot pages, aging the whole node's reference state in
	// one tick and evicting its hot set (a single-timeline simulation
	// artifact a real kernel's concurrency doesn't have).
	lastDemote map[mem.NodeID]sim.Time

	// Stats beyond the machine counters.
	PromoteAttempts int64
	PromoteFails    int64
	// PromoteRequeues counts failed promotions requeued for retry;
	// PromoteDrops counts pages that exhausted their retries and fell to
	// the active list. DemoteRequeues/DemoteSwapFallbacks mirror them on
	// the demotion path.
	PromoteRequeues     int64
	PromoteDrops        int64
	DemoteRequeues      int64
	DemoteSwapFallbacks int64

	// Reusable candidate buffers so every daemon wakeup is allocation
	// free. promoteBuf and demoteBuf must stay distinct: demoteFrom nests
	// inside kpromoted's candidate iteration (promoteIsolated →
	// makeRoomIn → demoteFrom), so one shared buffer would clobber
	// the outer loop. orderBuf serves the WriteBias reorder only.
	promoteBuf []*mem.Page
	demoteBuf  []*mem.Page
	orderBuf   []*mem.Page
}

// New returns a MULTI-CLOCK policy with the given configuration.
func New(cfg Config) *MultiClock {
	if cfg.ScanInterval <= 0 {
		cfg.ScanInterval = 1 * sim.Second
	}
	if cfg.ScanBatch <= 0 {
		cfg.ScanBatch = 1024
	}
	if cfg.PromoteMax <= 0 {
		cfg.PromoteMax = -1 // the paper's promote-all
	}
	return &MultiClock{cfg: cfg, lastDemote: make(map[mem.NodeID]sim.Time)}
}

// Name implements machine.Policy. A gated instance reports its admission
// controller so bake-off tables distinguish the variants.
func (mc *MultiClock) Name() string {
	if mc.cfg.Gate != nil {
		return "multiclock+" + mc.cfg.Gate.Name()
	}
	return "multiclock"
}

// Attach starts one kpromoted thread per node, following the kernel
// prototype's one-thread-per-node design to avoid lock contention (§IV).
func (mc *MultiClock) Attach(m *machine.Machine) {
	mc.Base.Attach(m)
	// Under fault injection, transient migration failures are expected
	// rather than exceptional, so bounded retries are on; a fault-free
	// machine keeps the paper's drop-immediately behaviour.
	if m.Faults != nil {
		mc.retries = mem.NewSide[retryState](m.Mem)
	}
	if mc.cfg.Gate != nil {
		mc.cfg.Gate.Attach(m)
	}
	mc.StartNodeDaemons("kpromoted", mc.cfg.ScanInterval, func(node mem.NodeID, _ *sim.Daemon) { mc.kpromoted(node) })
}

// kpromoted is one wakeup of the per-node daemon: scan the lists to update
// page states from the hardware reference bits, then migrate everything on
// the promote list to the next-higher tier (§III-B).
func (mc *MultiClock) kpromoted(node mem.NodeID) {
	m := mc.M
	vec := m.Vecs[node]
	stats := vec.ScanCycle(mc.cfg.ScanBatch)
	mc.ScanTax(stats)

	tier := m.Mem.Nodes[node].Tier
	candidates := vec.AppendPromote(mc.promoteBuf[:0], -1)
	mc.promoteBuf = candidates[:0]
	mc.QueueDepth(len(candidates))
	if tier == m.Mem.FastestTier() {
		// Top tier: nothing higher. Promote-list residents return to the
		// active list — they are simply the hottest pages where they are.
		for _, pg := range candidates {
			lru.ClearPromote(pg)
			vec.Putback(pg)
		}
		// Opportunistically keep the node healthy even without an
		// allocation trigger.
		if m.Mem.Nodes[node].UnderLow() {
			mc.demoteFrom(node, 0)
		}
		return
	}

	if mc.cfg.WriteBias {
		// §VII extension: promote dirty pages first so PM writes are the
		// accesses most likely to move to DRAM.
		ordered := mc.orderBuf[:0]
		for _, pg := range candidates {
			if pg.Flags.Has(mem.FlagDirty) {
				ordered = append(ordered, pg)
			}
		}
		for _, pg := range candidates {
			if !pg.Flags.Has(mem.FlagDirty) {
				ordered = append(ordered, pg)
			}
		}
		mc.orderBuf = ordered[:0]
		candidates = ordered
	}

	promoted := 0
	for _, pg := range candidates {
		if st := mc.retries.Get(pg); st != nil && st.nextTry > m.Clock.Now() {
			// Still backing off from an earlier transient failure: park
			// the page on the promote list without spending an attempt.
			// RequeuePromote re-arms the referenced flag so the wait
			// survives the next scan cycle's decay.
			lru.RequeuePromote(pg)
			vec.Putback(pg)
			continue
		}
		if mc.cfg.PromoteMax >= 0 && promoted >= mc.cfg.PromoteMax {
			// Budget spent: the page keeps its promote state and waits
			// for the next wakeup.
			vec.Putback(pg)
			continue
		}
		if mc.cfg.Gate != nil && !mc.cfg.Gate.Admit(pg, m.Clock.Now()) {
			// Refused by the admission gate: drop to the active list
			// without spending a migration attempt (the gate accounts the
			// rejection).
			lru.ClearPromote(pg)
			vec.Putback(pg)
			continue
		}
		mc.PromoteAttempts++
		// Promoted pages arrive in the DRAM active list: they earned
		// their heat. (Putback uses the flags, so rewrite them first.)
		lru.ClearPromote(pg)
		if mc.promoteIsolated(pg, len(candidates)) {
			promoted++
			mc.retries.Delete(pg)
		} else {
			mc.PromoteFails++
			mc.retryPromote(pg)
		}
	}
}

// retryPromote decides where a failed promotion lands. While the page has
// retry budget it is requeued onto the promote list with exponential
// backoff in virtual time — a transiently pinned page or momentarily full
// destination should not cost the page its earned heat. Once the budget is
// exhausted it drops to the active list of its current tier, the paper's
// behaviour (§III-C).
func (mc *MultiClock) retryPromote(pg *mem.Page) {
	if mc.retries != nil {
		st := mc.retries.Put(pg)
		if st.promoteFails < promoteRetryMax {
			st.promoteFails++
			st.nextTry = mc.M.Clock.Now() + sim.Time(mc.cfg.ScanInterval<<(st.promoteFails-1))
			mc.PromoteRequeues++
			mc.M.Vecs[pg.Node].Note(pg, lru.CausePromoteRequeue)
			lru.RequeuePromote(pg)
			mc.M.Vecs[pg.Node].Putback(pg)
			return
		}
		mc.retries.Delete(pg)
		mc.PromoteDrops++
	}
	mc.M.Vecs[pg.Node].Note(pg, lru.CausePromoteDrop)
	// Paper: pages that cannot migrate move to the active list of their
	// current tier (§III-C). ClearPromote already set the flags.
	mc.M.Vecs[pg.Node].Putback(pg)
}

// promoteIsolated migrates one isolated page to the tier above its current
// one, demoting cold pages from that tier first when it is under pressure
// ("promotions from the lower tier result in immediate page demotions from
// the higher tier", §III-C). demand sizes the room-making to the whole
// promotion batch.
func (mc *MultiClock) promoteIsolated(pg *mem.Page, demand int) bool {
	m := mc.M
	up, ok := m.Mem.Above(m.Mem.Tier(pg))
	if !ok {
		return false
	}
	dst := m.Mem.PickNode(up)
	if dst == mem.NoNode || m.Mem.Nodes[dst].UnderMin() {
		mc.makeRoomIn(up, demand)
		dst = m.Mem.PickNode(up)
		if dst == mem.NoNode {
			return false
		}
	}
	return m.MigrateIsolated(pg, dst)
}

// makeRoomIn demotes from every node of tier t under pressure, aiming to
// free about `demand` frames across the tier.
func (mc *MultiClock) makeRoomIn(t mem.Tier, demand int) {
	nodes := mc.M.Mem.TierNodes(t)
	perNode := demand/len(nodes) + 1
	for _, id := range nodes {
		if mc.M.Mem.Nodes[id].UnderHigh() {
			mc.demoteFrom(id, perNode)
		}
	}
}

// Pressure is the kswapd wakeup: an allocation pushed node below its low
// watermark.
func (mc *MultiClock) Pressure(node mem.NodeID) {
	mc.demoteFrom(node, 0)
}

// demoteFrom relieves pressure on one node: rebalance active/inactive by
// the √(10·n):1 rule (floored by minActiveRatio), then migrate cold
// inactive pages down a tier — or swap them out if the node is already in
// the lowest tier (§III-C). extra raises the reclaim target beyond the
// high watermark (promotion demand).
//
// Reference state is spent at most once per virtual instant: repeat calls
// within the same instant can harvest pages that are already cold but must
// not age anything further, because no application access could have
// re-referenced a page in the meantime — without this, a promotion burst
// would strip a node's entire hot set of its protection in one tick (a
// single-timeline artifact real kernels' concurrency doesn't have).
func (mc *MultiClock) demoteFrom(node mem.NodeID, extra int) {
	m := mc.M
	n := m.Mem.Nodes[node]
	vec := m.Vecs[node]

	need := n.WM.High - n.FreeFrames() + reclaimCluster + extra
	if need > mc.cfg.ScanBatch {
		need = mc.cfg.ScanBatch
	}
	if need <= 0 || !n.UnderHigh() && extra == 0 {
		return
	}

	now := m.Clock.Now()
	candidates := mc.demoteBuf[:0]
	if mc.lastDemote[node] == now && now != 0 {
		candidates = vec.AppendDemoteCandidatesCold(candidates, need)
	} else {
		mc.lastDemote[node] = now
		ratio := lru.ActiveRatioLimit(n.Frames)
		if ratio < minActiveRatio {
			ratio = minActiveRatio
		}
		for round := 0; round < demoteRounds && len(candidates) < need; round++ {
			moved := vec.BalanceActive(ratio, mc.cfg.ScanBatch)
			m.Mem.Counters.PagesScanned += int64(moved)
			candidates = vec.AppendDemoteCandidates(candidates, need-len(candidates))
		}
	}

	lower, hasLower := m.Mem.Below(n.Tier)
	for _, pg := range candidates {
		if !hasLower {
			mc.evictIsolated(pg)
			continue
		}
		dst := m.Mem.PickNode(lower)
		if dst == mem.NoNode {
			// Lower tier full too (or durable, i.e. the swap device):
			// write back to storage instead.
			mc.evictIsolated(pg)
			continue
		}
		if !m.MigrateIsolated(pg, dst) {
			// A compound page may fail on fragmentation alone: split it
			// (split_huge_page) so its base pages reclaim individually.
			if pg.IsHuge() && pg.Space >= 0 {
				m.SplitHuge(pg)
				continue
			}
			mc.retryDemote(pg)
			continue
		}
		mc.retries.Delete(pg)
	}
	mc.demoteBuf = candidates[:0]
}

// retryDemote returns a demotion candidate whose downward migration failed
// transiently to its inactive list for a bounded number of attempts; only
// after the budget is exhausted does demotion fall back to swapping the
// page out (synchronous writeback is strictly worse than a retried
// migration).
func (mc *MultiClock) retryDemote(pg *mem.Page) {
	if mc.retries != nil {
		st := mc.retries.Put(pg)
		if st.demoteFails < demoteRetryMax {
			st.demoteFails++
			mc.DemoteRequeues++
			mc.M.Vecs[pg.Node].Note(pg, lru.CauseDemoteRequeue)
			mc.M.Vecs[pg.Node].Putback(pg)
			return
		}
		mc.retries.Delete(pg)
		mc.DemoteSwapFallbacks++
	}
	mc.M.Vecs[pg.Node].Note(pg, lru.CauseSwapFallback)
	mc.evictIsolated(pg)
}

// evictIsolated writes an isolated page to swap, splitting compound pages
// first so a single reclaim does not write 2 MiB synchronously.
func (mc *MultiClock) evictIsolated(pg *mem.Page) {
	if pg.IsHuge() && pg.Space >= 0 {
		mc.M.SplitHuge(pg)
		return
	}
	mc.M.SwapOut(pg)
}
