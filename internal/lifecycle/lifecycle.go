// Package lifecycle implements the per-page span tracer: every Fig. 4
// transition a traced page makes — LRU list movement, promote-candidate
// selection and decay, migration attempts and their outcomes, retry
// bookkeeping, eviction and death — is recorded as a virtual-time-stamped
// span event with a typed reason code.
//
// The tracer is purely observational. It installs as an lru.Hook on every
// vec, never mutates pages or lists, and never advances virtual time, so an
// instrumented run's simulated timeline is identical to an uninstrumented
// one. Memory is bounded three ways: deterministic page-identity-hash
// sampling (SampleMod), a cap on traced pages (maxPages), and a per-page
// event cap (maxEventsPerPage). Sampling is a pure function of (space,
// virtual address), so the same pages are traced in every same-seed run
// regardless of parallelism.
package lifecycle

import (
	"sort"

	"multiclock/internal/lru"
	"multiclock/internal/machine"
	"multiclock/internal/mem"
	"multiclock/internal/metrics"
	"multiclock/internal/sim"
)

// Config selects the traced pages.
type Config struct {
	// SampleMod traces only pages whose identity hash is 0 mod SampleMod;
	// 0 or 1 traces every page.
	SampleMod uint64
}

const (
	// maxPages caps distinct traced pages. Later pages are counted in
	// PagesDropped and their events discarded.
	maxPages = 4096
	// maxEventsPerPage caps each page's timeline; events past the cap are
	// dropped (the head of the timeline is kept, so birth and the first
	// ladder climb always survive).
	maxEventsPerPage = 512
)

// pageKey is the stable page identity: descriptor pointers are reused
// across free/fault, but (space, va) names the same application page
// across migrations and even across swap-out/refault.
type pageKey struct {
	space int32
	va    uint64
}

// pageTrace accumulates one page's timeline. A nil events slice with
// stub=true marks a page that arrived after maxPages was hit.
type pageTrace struct {
	events     []metrics.SpanEvent
	migrations int64
	stub       bool
	truncated  bool
}

// Tracer records page lifecycle spans. It implements lru.Hook.
// Single-threaded, like the machine it binds.
type Tracer struct {
	cfg   Config
	clock *sim.Clock

	pages map[pageKey]*pageTrace
	// byPtr remembers each sampled descriptor's identity: the page table
	// clears pg.Space before the delete/free hooks fire, so end-of-life
	// events resolve their key through the descriptor. Entries die with
	// the page.
	byPtr         *mem.Side[pageKey]
	tracked       int // non-stub entries in pages
	pagesDropped  int64
	eventsDropped int64
}

// New creates a tracer sampling per cfg (a zero SampleMod traces every page).
func New(cfg Config) *Tracer {
	if cfg.SampleMod == 0 {
		cfg.SampleMod = 1
	}
	return &Tracer{
		cfg:   cfg,
		pages: make(map[pageKey]*pageTrace),
	}
}

// Bind hooks the tracer on every LRU vec of the machine and returns it for
// chaining.
func (t *Tracer) Bind(m *machine.Machine) *Tracer {
	t.clock = m.Clock
	t.byPtr = mem.NewSide[pageKey](m.Mem)
	for _, v := range m.Vecs {
		v.AddHook(t)
	}
	return t
}

// hashKey is a splitmix64-style mix of the page identity; its low bits are
// uniform enough that key.hash % SampleMod samples evenly.
func hashKey(k pageKey) uint64 {
	x := uint64(uint32(k.space))<<56 ^ k.va
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// sampled reports whether this page identity is traced.
func (t *Tracer) sampled(k pageKey) bool {
	return t.cfg.SampleMod <= 1 || hashKey(k)%t.cfg.SampleMod == 0
}

// keyOf resolves a page's identity: directly while mapped, through the
// descriptor map once the page table has cleared pg.Space (unmap paths).
func (t *Tracer) keyOf(pg *mem.Page) (pageKey, bool) {
	if pg.Space >= 0 {
		return pageKey{space: pg.Space, va: pg.VA}, true
	}
	if k := t.byPtr.Get(pg); k != nil {
		return *k, true
	}
	return pageKey{}, false
}

// trace returns the page's accumulator, creating it within bounds; nil
// when the page is unsampled, unresolvable, or over the page cap.
func (t *Tracer) trace(pg *mem.Page) *pageTrace {
	k, ok := t.keyOf(pg)
	if !ok || !t.sampled(k) {
		return nil
	}
	*t.byPtr.Put(pg) = k
	pt := t.pages[k]
	if pt == nil {
		pt = &pageTrace{}
		if t.tracked >= maxPages {
			pt.stub = true
			t.pagesDropped++
		} else {
			t.tracked++
		}
		t.pages[k] = pt
	}
	if pt.stub {
		t.eventsDropped++
		return nil
	}
	return pt
}

// record appends one span event to the page's timeline.
func (t *Tracer) record(pg *mem.Page, state lru.State, reason string, node mem.NodeID, now sim.Time) {
	pt := t.trace(pg)
	if pt == nil {
		return
	}
	if len(pt.events) >= maxEventsPerPage {
		pt.truncated = true
		t.eventsDropped++
		return
	}
	pt.events = append(pt.events, metrics.SpanEvent{
		At: int64(now), State: state.String(), Reason: reason, Node: int(node),
	})
}

// PageTransition implements lru.Hook: list/state movement with the reason
// refined from the LRU cause and the states involved, and the outcomes the
// vecs note under their own cause names.
func (t *Tracer) PageTransition(pg *mem.Page, node mem.NodeID, from, to lru.State, cause lru.Cause) {
	now := t.clock.Now()
	reason := cause.String()
	switch cause {
	case lru.CauseAdd:
		if pg.BornAt == now {
			reason = "birth"
		}
	case lru.CauseDecay:
		if from == lru.StatePromoteUnref || from == lru.StatePromoteRef {
			reason = "promote-decay"
		}
	case lru.CauseIsolate:
		switch from {
		case lru.StatePromoteUnref, lru.StatePromoteRef:
			reason = "promote-select"
		case lru.StateInactiveUnref, lru.StateInactiveRef:
			reason = "demote-select"
		}
	case lru.CauseDelete:
		reason = "unmapped"
	case lru.CausePromoted, lru.CauseDemoted, lru.CauseMigrated:
		if pt := t.trace(pg); pt != nil {
			pt.migrations++
		}
	}
	t.record(pg, to, reason, node, now)
}

// Export snapshots the tracer as the wire-format lifecycle section, pages
// sorted by (space, va). Export does not mutate the tracer and may be
// called repeatedly.
func (t *Tracer) Export() *metrics.LifecycleExport {
	out := &metrics.LifecycleExport{
		SampleMod:        t.cfg.SampleMod,
		MaxPages:         maxPages,
		MaxEventsPerPage: maxEventsPerPage,
		PagesDropped:     t.pagesDropped,
		EventsDropped:    t.eventsDropped,
	}
	keys := make([]pageKey, 0, t.tracked)
	for k, pt := range t.pages {
		if !pt.stub {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].space != keys[j].space {
			return keys[i].space < keys[j].space
		}
		return keys[i].va < keys[j].va
	})
	for _, k := range keys {
		pt := t.pages[k]
		out.Pages = append(out.Pages, metrics.PageTimeline{
			Space:      k.space,
			VA:         k.va,
			Migrations: pt.migrations,
			Events:     append([]metrics.SpanEvent(nil), pt.events...),
		})
	}
	return out
}

// compile-time interface check
var _ lru.Hook = (*Tracer)(nil)
