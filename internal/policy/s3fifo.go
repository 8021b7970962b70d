package policy

import (
	"multiclock/internal/lru"
	"multiclock/internal/machine"
	"multiclock/internal/mem"
	"multiclock/internal/sim"
)

// Selector membership lives in the low bits of the state byte, the
// saturating access frequency (0..3) in the high nibble, and one "fresh"
// bit marks a page admitted by the very access being served (a birth
// fault): that access is the insertion itself, not a reuse, so the first
// frequency bump is absorbed. One side table holds it all so the access fast
// path pays a single lookup.
const (
	s3None  uint8 = 0
	s3Small uint8 = 1
	s3Main  uint8 = 2
	s3Ghost uint8 = 3

	s3MemberMask uint8 = 0x07
	s3Fresh      uint8 = 0x08
	s3FreqShift        = 4
	s3FreqMax    uint8 = 3
)

const (
	// s3SmallFrac is the small queue's share of a PM node's frames, the
	// S3-FIFO paper's split.
	s3SmallFrac = 0.1
	// s3PromoteFreq is the access count at which a main-queue page is
	// promoted to DRAM: MULTI-CLOCK's two-touch bar (frequencies saturate
	// at s3FreqMax as in S3-FIFO).
	s3PromoteFreq uint8 = 2
)

// s3queues is the per-PM-node queue triple. The small and main queues hold
// PM-resident pages; the ghost queue holds identities of pages that left
// small without demonstrated reuse. All three are lazily invalidated: the
// state table is authoritative, and a popped entry whose descriptor has since
// been reissued, or whose recorded membership no longer names that queue, is
// stale and skipped.
type s3queues struct {
	small, main, ghost []pageRef
	smallCap, ghostCap int
	mainCap            int
}

// S3FIFO selects promotion candidates with the S3-FIFO queue structure
// (small/main/ghost FIFOs with lazy promotion and quick demotion) instead
// of CLOCK aging: pages arriving on a PM node enter a small probationary
// FIFO; leaving it without a recorded access costs them a ghost entry,
// with one or more accesses they graduate to the main FIFO; a ghost hit —
// an access to a recently "quick-demoted" identity — re-enters main
// directly. Main-queue pages whose saturating access count reaches
// s3PromoteFreq migrate to DRAM. Arrivals are observed through the lru.Vec
// transition-hook surface; DRAM aging and the demotion side reuse the
// vanilla recency CLOCK.
type S3FIFO struct {
	recencyDemoter
	interval sim.Duration

	// queues is indexed by NodeID; nil for DRAM nodes.
	queues []*s3queues
	// state holds each tracked page's membership|freq; entries die with
	// the page, at promotion or at ghost eviction.
	state *mem.Side[uint8]

	// Selector stats for the bake-off report.
	SmallToMain int64
	GhostHits   int64
	Promotions  int64
}

// NewS3FIFO returns the S3-FIFO selector policy, its daemons waking every
// interval.
func NewS3FIFO(interval sim.Duration) *S3FIFO {
	return &S3FIFO{interval: interval}
}

// Name implements machine.Policy.
func (s *S3FIFO) Name() string { return "s3fifo" }

// Attach sizes the per-PM-node queues, registers the arrival hook on each
// PM vec, and starts the per-node daemons.
func (s *S3FIFO) Attach(m *machine.Machine) {
	s.recencyDemoter.Attach(m)
	s.state = mem.NewSide[uint8](m.Mem)
	s.queues = make([]*s3queues, len(m.Mem.Nodes))
	for _, n := range m.Mem.Nodes {
		if n.Tier != m.Mem.FastestTier() {
			smallCap := int(float64(n.Frames) * s3SmallFrac)
			if smallCap < 8 {
				smallCap = 8
			}
			s.queues[n.ID] = &s3queues{
				smallCap: smallCap,
				mainCap:  n.Frames - smallCap,
				ghostCap: n.Frames / 2,
			}
			m.Vecs[n.ID].AddHook(s)
		}
	}
	s.StartNodeDaemons("s3fifo-scan", s.interval, func(node mem.NodeID, _ *sim.Daemon) { s.scan(node) })
}

// PageTransition implements lru.Hook: PM arrivals enter the small queue.
// Only policy-internal state is touched, per the hook contract.
func (s *S3FIFO) PageTransition(pg *mem.Page, node mem.NodeID, from, to lru.State, cause lru.Cause) {
	q := s.queues[node]
	if q == nil {
		return
	}
	switch cause {
	case lru.CauseAdd:
		// Birth (or swap-in) on a PM node: the triggering access is the
		// insertion, not a reuse.
		s.admit(q, pg, true)
	case lru.CausePutback:
		// A page the machine putback on a PM vec it is not tracked on is
		// an arrival too (a demotion from DRAM); putbacks of pages already
		// tracked here — failed promotions, parked candidates — are not.
		// Any access after a demotion arrival is a genuine reuse.
		if s.state.Value(pg)&s3MemberMask == s3None {
			s.admit(q, pg, false)
		}
	}
}

// admit enters a base page into the small probationary queue with frequency
// zero. Compound pages stay outside the selector (they migrate only through
// the demotion machinery, as in the cache-oriented original).
func (s *S3FIFO) admit(q *s3queues, pg *mem.Page, fresh bool) {
	if pg.IsHuge() {
		return
	}
	v := s3Small
	if fresh {
		v |= s3Fresh
	}
	*s.state.Put(pg) = v
	q.small = append(q.small, refTo(pg))
}

// Access bumps the tracked page's saturating frequency; an access to a
// ghost identity is the S3-FIFO re-insertion signal and moves the page
// directly to the main queue.
func (s *S3FIFO) Access(pg *mem.Page, write bool) sim.Duration {
	if p := s.state.Get(pg); p != nil {
		switch v := *p; {
		case v&s3MemberMask == s3Ghost:
			// Ghost hit: the quick demotion was wrong, skip probation.
			s.GhostHits++
			*p = s3Main | 1<<s3FreqShift
			if q := s.queues[pg.Node]; q != nil {
				q.main = append(q.main, refTo(pg))
			}
		case v&s3Fresh != 0:
			// The admitting access itself: absorbed, not a reuse.
			*p = v &^ s3Fresh
		case v>>s3FreqShift < s3FreqMax:
			*p = v + 1<<s3FreqShift
		}
	}
	return s.Base.Access(pg, write)
}

// scan is one daemon wakeup. Every node runs vanilla CLOCK aging (the
// demotion side still wants a meaningful active/inactive split); candidate
// selection belongs to the queues alone. PM nodes then run the queue
// maintenance and promotion pass.
func (s *S3FIFO) scan(node mem.NodeID) {
	m := s.M
	vec := m.Vecs[node]
	stats := vec.ScanCycle(scanBatch)

	q := s.queues[node]
	if q == nil {
		// Fastest tier: aging only, plus opportunistic pressure relief.
		s.ScanTax(stats)
		if m.Mem.Nodes[node].UnderLow() {
			s.makeRoom(m.Mem.Nodes[node].Tier)
		}
		return
	}

	stats.Scanned += s.evictSmall(q)
	stats.Scanned += s.promoteFromMain(q)
	s.ScanTax(stats)
}

// evictSmall drains the small queue down to its capacity: entries with
// demonstrated reuse graduate to main, the rest quick-demote to ghost. It
// returns the number of entries examined (daemon work accounting).
func (s *S3FIFO) evictSmall(q *s3queues) int {
	work := 0
	for len(q.small) > q.smallCap && work < scanBatch {
		ref := q.small[0]
		q.small = q.small[1:]
		work++
		p := s.state.Get(ref.pg)
		if ref.stale() || p == nil || *p&s3MemberMask != s3Small {
			continue // stale: the page died or was re-admitted elsewhere
		}
		if v := *p; v>>s3FreqShift > 0 {
			s.SmallToMain++
			*p = s3Main | v&^s3MemberMask
			q.main = append(q.main, ref)
		} else {
			*p = s3Ghost
			q.ghost = append(q.ghost, ref)
			s.trimGhost(q)
		}
	}
	return work
}

// trimGhost evicts the oldest ghost identities beyond capacity; an evicted
// identity is forgotten entirely.
func (s *S3FIFO) trimGhost(q *s3queues) {
	for len(q.ghost) > q.ghostCap {
		ref := q.ghost[0]
		q.ghost = q.ghost[1:]
		if !ref.stale() && s.state.Value(ref.pg) == s3Ghost {
			s.state.Delete(ref.pg)
		}
	}
}

// promoteFromMain examines up to scanBatch main-queue entries: pages at or
// above the promotion frequency migrate to DRAM, the rest rotate to the
// tail (with a frequency decay when the queue is over capacity, the
// original's eviction pressure). Returns entries examined.
func (s *S3FIFO) promoteFromMain(q *s3queues) int {
	m := s.M
	limit := len(q.main)
	if limit > scanBatch {
		limit = scanBatch
	}
	depth := 0
	for i := 0; i < limit; i++ {
		ref := q.main[0]
		q.main = q.main[1:]
		pg := ref.pg
		p := s.state.Get(pg)
		if ref.stale() || p == nil || *p&s3MemberMask != s3Main {
			continue // stale
		}
		freq := *p >> s3FreqShift
		if freq < s3PromoteFreq || pg.Flags.Has(mem.FlagUnevictable) ||
			!pg.OnList() || pg.Flags.Has(mem.FlagIsolated) {
			// Not (or not yet) a candidate: rotate, decaying the recorded
			// frequency when the queue is over capacity so stale heat
			// cannot pin a page near the promotion bar forever.
			if len(q.main) >= q.mainCap && freq > 0 {
				*p -= 1 << s3FreqShift
			}
			q.main = append(q.main, ref)
			continue
		}
		depth++
		m.Vecs[pg.Node].Isolate(pg)
		if promoteUp(m, pg, s.makeRoom) {
			s.Promotions++
			s.state.Delete(pg)
		} else {
			// Destination full: put the page back and keep it queued.
			m.Vecs[pg.Node].Putback(pg)
			q.main = append(q.main, ref)
		}
	}
	s.QueueDepth(depth)
	return limit
}

var _ lru.Hook = (*S3FIFO)(nil)
