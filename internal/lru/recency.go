package lru

import "multiclock/internal/mem"

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
