package lru

import "multiclock/internal/mem"

// ScanStats summarizes one scanner pass over a vec.
type ScanStats struct {
	Scanned     int // pages examined
	Referenced  int // pages whose hardware accessed bit was found set
	Activated   int // inactive → active transitions
	ToPromote   int // active → promote transitions (10)
	FromPromote int // promote → active decays (11)
}

// Add accumulates other into s.
func (s *ScanStats) Add(other ScanStats) {
	s.Scanned += other.Scanned
	s.Referenced += other.Referenced
	s.Activated += other.Activated
	s.ToPromote += other.ToPromote
	s.FromPromote += other.FromPromote
}

// ScanCycle runs one CLOCK pass over the vec's evictable lists with a total
// budget of batch pages (the paper sets 1024 pages per kpromoted run,
// §V-C). The budget is divided across lists in proportion to their
// populations. For each examined page the hardware accessed bit is read and
// cleared; observed accesses drive the vec's ladder, and unaccessed
// promote-list pages decay back to active (11). Pages that do not change
// lists rotate to the head, which is what makes the pass a CLOCK hand
// rather than a one-shot sweep.
func (v *Vec) ScanCycle(batch int) ScanStats {
	var stats ScanStats
	// Snapshot list lengths before scanning: transitions push pages onto
	// the heads of later lists, and those arrivals must not be re-examined
	// (or decayed) within the same pass.
	var lens [Unevictable]int
	total := 0
	for k := Kind(0); k < Unevictable; k++ {
		lens[k] = v.lists[k].Len()
		total += lens[k]
	}
	if total == 0 || batch <= 0 {
		return stats
	}
	quotas := v.quotas(&lens, total, batch)
	for k := Kind(0); k < Unevictable; k++ {
		if quotas[k] > 0 {
			stats.Add(v.scanList(k, quotas[k]))
		}
	}
	return stats
}

// quotas splits a pass's budget of batch pages across the evictable lists in
// proportion to their populations lens, total pages in all. Integer division
// leaves a remainder of fewer than NumKinds pages, which is handed out one
// page at a time to the most populated lists first, so the quotas sum to
// exactly min(batch, total). The stock ladder keeps its historical split
// instead: a zero quota is bumped to one page and the remainder is dropped,
// so a pass may scan a few pages more or fewer than batch.
func (v *Vec) quotas(lens *[Unevictable]int, total, batch int) (quotas [Unevictable]int) {
	assigned := 0
	var order [Unevictable]Kind // populated lists, most populated first
	no := 0
	for k := Kind(0); k < Unevictable; k++ {
		if lens[k] == 0 {
			continue
		}
		q := batch * lens[k] / total
		if q == 0 && v.Ladder == StockLadder {
			q = 1
		}
		quotas[k] = min(q, lens[k])
		assigned += quotas[k]
		// Stable insertion sort by descending length: ties keep kind
		// order (this runs every daemon wakeup, so no sort package).
		i := no
		for i > 0 && lens[order[i-1]] < lens[k] {
			order[i] = order[i-1]
			i--
		}
		order[i] = k
		no++
	}
	if v.Ladder == StockLadder {
		return quotas
	}
	for rem := batch - assigned; rem > 0; {
		gave := false
		for _, k := range order[:no] {
			if rem == 0 {
				break
			}
			if quotas[k] < lens[k] {
				quotas[k]++
				rem--
				gave = true
			}
		}
		if !gave {
			break // every list fully covered; batch exceeds total
		}
	}
	return quotas
}

// scanList examines up to n pages from the tail of list k. It is the only
// CLOCK hand, whatever the vec's ladder. The pages whose aging step keeps
// them on the list — idle ones, (1)/(7) and the referenced decay, all but a
// few per cent of what a hand meets — are aged and rotated in runs inside the
// ring (mem.PageList.AgeRun, DESIGN.md §7.5); the loop here handles what a run
// stops at: the list-changing transitions (6)/(10), every state-changing page
// while a hook is attached (AgeRun reports no transitions), and the promote
// lists with their (11) decay.
func (v *Vec) scanList(k Kind, n int) ScanStats {
	var stats ScanStats
	l := &v.lists[k]
	stop := 2 // a page seen twice: (6)/(10)
	switch {
	case v.hook != nil:
		stop = 1 // and any page whose state changes: the hook is owed the event
	case v.Ladder == StockLadder && !k.IsInactive():
		stop = 3 // no (10): above the inactive lists references saturate
	}
	for stats.Scanned < n {
		if !k.IsPromote() {
			v.ageRun(l, n-stats.Scanned, stop, &stats)
			if stats.Scanned == n {
				break
			}
		}
		pg := l.Back()
		if pg == nil {
			return stats
		}
		stats.Scanned++
		wasKind := k
		if v.Age(pg) {
			stats.Referenced++
			switch nowKind := kindFor(pg); {
			case wasKind.IsInactive() && nowKind.IsActive():
				stats.Activated++
			case wasKind.IsActive() && nowKind.IsPromote():
				stats.ToPromote++
			}
		} else if !k.IsPromote() && pg.Flags.Has(mem.FlagReferenced) {
			// Decay, Fig. 4 transition (2) (and its active-list twin):
			// a window with no access costs the page its referenced
			// state, so climbing the ladder requires accesses in
			// consecutive windows — frequency, not just recency.
			v.spendReferenced(pg)
		}
		if pg.List() == l {
			// No list transition fired; give the page its rotation so
			// the hand advances (or decay promote pages that went cold).
			if k.IsPromote() {
				if v.DecayPromote(pg) {
					stats.FromPromote++
					continue
				}
			}
			l.MoveToFront(pg)
		}
	}
	return stats
}

// ageRun hands the next n pages of l to the list's run kernel and books what
// it took; it returns that count.
func (v *Vec) ageRun(l *mem.PageList, n, stop int, stats *ScanStats) int {
	run, referenced := l.AgeRun(n, stop)
	stats.Scanned += run
	stats.Referenced += referenced
	v.Scanned += int64(run)
	return run
}

// AppendPromote isolates up to max pages from the promote lists (oldest
// first) and appends them to buf, ready for migration to a higher tier.
// This is kpromoted's selection step: everything on the promote list is a
// candidate, and all selected pages are promoted in the same run (§III-B).
// Pass max < 0 to take everything. Daemons that run every wakeup reuse one
// candidate buffer instead of allocating.
func (v *Vec) AppendPromote(buf []*mem.Page, max int) []*mem.Page {
	base := len(buf)
	for _, k := range [...]Kind{PromoteAnon, PromoteFile} {
		l := &v.lists[k]
		for !l.Empty() {
			if max >= 0 && len(buf)-base >= max {
				return buf
			}
			pg := l.Back()
			v.Isolate(pg)
			buf = append(buf, pg)
		}
	}
	return buf
}

// BalanceActive enforces the active:inactive ratio limit (√(10·n):1,
// §III-C): while an active list exceeds ratio × its inactive sibling,
// unreferenced pages from the active tail move to the inactive list —
// Fig. 4 transition (9) — and referenced ones get a second chance rotation.
// At most budget pages are examined; the number deactivated is returned.
func (v *Vec) BalanceActive(ratio float64, budget int) int {
	moved := 0
	for _, pair := range [...][2]Kind{{ActiveAnon, InactiveAnon}, {ActiveFile, InactiveFile}} {
		active, inactive := &v.lists[pair[0]], &v.lists[pair[1]]
		for budget > 0 && float64(active.Len()) > ratio*float64(inactive.Len()+1) {
			pg := active.Back()
			if pg == nil {
				break
			}
			budget--
			v.Scanned++
			if pg.TestAndClearAccessed() || pg.Flags.Has(mem.FlagReferenced) {
				// Second chance: stay active but spend the reference.
				v.spendReferenced(pg)
				active.MoveToFront(pg)
				continue
			}
			v.Deactivate(pg)
			moved++
		}
	}
	return moved
}

// AppendDemoteCandidatesCold isolates up to max unreferenced pages from the
// inactive tails into buf without spending any reference state: referenced
// pages are skipped, not aged. Used by repeat reclaim calls within one
// virtual instant, where no application access could have re-referenced
// anything since the last aging pass.
func (v *Vec) AppendDemoteCandidatesCold(buf []*mem.Page, max int) []*mem.Page {
	base := len(buf)
	for _, k := range [...]Kind{InactiveAnon, InactiveFile} {
		for pg := v.lists[k].Back(); pg != nil && len(buf)-base < max; {
			prev := pg.Prev()
			v.Scanned++
			if !pg.Accessed && !pg.Flags.Has(mem.FlagReferenced) {
				v.Isolate(pg)
				buf = append(buf, pg)
			}
			pg = prev
		}
		if len(buf)-base >= max {
			break
		}
	}
	return buf
}

// AppendDemoteCandidates scans the inactive tails for cold pages and
// isolates up to max of them into buf for migration to a lower tier (or
// eviction). Pages with a set hardware bit or software referenced flag
// receive their second chance instead, exactly as shrink_inactive_list keeps
// referenced pages (§III-C). The scan examines at most one full pass over
// each inactive list.
func (v *Vec) AppendDemoteCandidates(buf []*mem.Page, max int) []*mem.Page {
	base := len(buf)
	for _, k := range [...]Kind{InactiveAnon, InactiveFile} {
		l := &v.lists[k]
		for budget := l.Len(); budget > 0 && len(buf)-base < max; budget-- {
			pg := l.Back()
			if pg == nil {
				break
			}
			v.Scanned++
			if pg.TestAndClearAccessed() {
				// Observed unsupervised access: full aging step.
				v.MarkAccessed(pg)
				if pg.List() == l {
					l.MoveToFront(pg)
				}
				continue
			}
			if pg.Flags.Has(mem.FlagReferenced) {
				// Software-referenced: spend it, rotate.
				v.spendReferenced(pg)
				l.MoveToFront(pg)
				continue
			}
			v.Isolate(pg)
			buf = append(buf, pg)
		}
		if len(buf)-base >= max {
			break
		}
	}
	return buf
}
