package lru

import "multiclock/internal/mem"

// markAccessedRecency is the unmodified kernel aging step: the same ladder
// as MarkAccessed up to the active list, but with no promote transition —
// pages saturate at active+referenced. Used by recency-only baselines
// (Nimble's page selection uses Linux's stock CLOCK profiling, §II-D).
func (v *Vec) markAccessedRecency(pg *mem.Page) {
	if pg.Flags.Has(mem.FlagIsolated) || !pg.Flags.Has(mem.FlagLRU) {
		return
	}
	switch k := v.KindOf(pg); {
	case k == Unevictable:
	case k.IsInactive():
		if !pg.Flags.Has(mem.FlagReferenced) {
			pg.SetFlags(mem.FlagReferenced)
		} else {
			v.lists[k].Remove(pg)
			pg.ClearFlags(mem.FlagReferenced)
			pg.SetFlags(mem.FlagActive)
			v.lists[kindFor(pg)].PushFront(pg)
		}
	default:
		// Active (or, defensively, promote): just refresh the reference.
		pg.SetFlags(mem.FlagReferenced)
	}
}

// ScanCycleRecency runs one CLOCK pass using only recency information: the
// vanilla PFRA aging with no promote list. Stats fields ToPromote and
// FromPromote stay zero.
func (v *Vec) ScanCycleRecency(batch int) ScanStats {
	var stats ScanStats
	var lens [Unevictable]int
	total := 0
	for k := Kind(0); k < Unevictable; k++ {
		lens[k] = v.lists[k].Len()
		total += lens[k]
	}
	if total == 0 || batch <= 0 {
		return stats
	}
	for k := Kind(0); k < Unevictable; k++ {
		if lens[k] == 0 {
			continue
		}
		quota := batch * lens[k] / total
		if quota == 0 {
			quota = 1
		}
		if quota > lens[k] {
			quota = lens[k]
		}
		l := &v.lists[k]
		// Only (6), an inactive page seen twice, changes lists here; above
		// the inactive lists references saturate and the whole quota is one
		// run. No transition of this ladder is reported to hooks.
		stop := 3 // never
		if k.IsInactive() {
			stop = 2 // a page seen twice
		}
		for left := quota; left > 0; left-- {
			if left -= v.ageRun(l, left, stop, &stats); left == 0 {
				break
			}
			pg := l.Back()
			if pg == nil {
				break
			}
			stats.Scanned++
			v.Scanned++
			wasInactive := k.IsInactive()
			if pg.TestAndClearAccessed() {
				stats.Referenced++
				v.markAccessedRecency(pg)
				if wasInactive && kindFor(pg).IsActive() {
					stats.Activated++
				}
			} else if pg.Flags.Has(mem.FlagReferenced) {
				// Vanilla CLOCK decay: an idle window spends the
				// referenced state.
				pg.ClearFlags(mem.FlagReferenced)
			}
			if pg.List() == l {
				l.MoveToFront(pg)
			}
		}
	}
	return stats
}

// AppendActiveReferenced isolates up to max recently-referenced pages from
// the heads of the active lists into buf: Nimble's promotion selection
// ("exchange the top most recently accessed pages in the upper tier",
// §II-D). A single recent reference qualifies a page, which is exactly the
// lower selectivity the paper contrasts with MULTI-CLOCK's two-touch promote
// list. At most budget pages are examined.
func (v *Vec) AppendActiveReferenced(buf []*mem.Page, max, budget int) []*mem.Page {
	base := len(buf)
	for _, k := range [...]Kind{ActiveAnon, ActiveFile} {
		l := &v.lists[k]
		pg := l.Front()
		for pg != nil && budget > 0 && len(buf)-base < max {
			next := pg.Next()
			budget--
			v.Scanned++
			if pg.TestAndClearAccessed() || pg.Flags.Has(mem.FlagReferenced) {
				pg.ClearFlags(mem.FlagReferenced)
				v.Isolate(pg)
				buf = append(buf, pg)
			}
			pg = next
		}
	}
	return buf
}
