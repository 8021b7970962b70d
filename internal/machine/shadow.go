package machine

import "multiclock/internal/mem"

// Shadow-copy migration wrappers (Nomad-style non-exclusive tiering): the
// machine-level counterparts of MigrateIsolated for the two shadow paths,
// carrying the same cache, telemetry and lifecycle accounting so observers
// cannot tell a shadow migration from a regular one except by its cost.

// PromoteShadowIsolated promotes a page the caller has already isolated to
// dst, retaining the source frame as a shadow copy. On success the page is
// putback on dst's LRU; on failure the caller keeps ownership of the
// still-isolated page. Unevictable pages fail; compound pages must take the
// regular migration path.
func (m *Machine) PromoteShadowIsolated(pg *mem.Page, dst mem.NodeID) bool {
	src := pg.Node
	return m.finishMigration(pg, src, dst, m.Mem.PromoteWithShadow(pg, dst))
}

// DemoteShadowIsolated demotes an isolated clean shadowed page for free by
// remapping it onto its retained shadow frame: no page copy, only the
// remap/TLB tax. On success the page is putback on the shadow node's LRU;
// on failure (no shadow held) the caller keeps the isolated page.
func (m *Machine) DemoteShadowIsolated(pg *mem.Page) bool {
	if !pg.HasShadow() {
		return false
	}
	src := pg.Node
	res := m.Mem.DemoteToShadow(pg)
	return m.finishMigration(pg, src, pg.Node, res)
}
