package mem

// Shadow-copy migration (Nomad-style non-exclusive tiering): a promotion
// may retain the source frame as a shadow copy of the page instead of
// freeing it. While the page stays clean the shadow remains a valid replica,
// which makes the eventual demotion free — remap to the retained frame, no
// page copy. A write invalidates the replica; the owning policy is
// responsible for dropping the shadow at (or before) the write, so a page
// with HasShadow() is by protocol clean with respect to its shadow.
//
// Accounting: a shadowed page occupies two frame sets — the primary
// (Node/Frame, on the LRU and mapped) and the shadow (allocated, off-LRU,
// unmapped). The page carries FlagShadow; the System keeps the shadow's
// location, so the descriptor stays one cache line. System.ShadowFrames()
// reports the shadow frames so machine-level invariant checks can reconcile
// used = LRU-resident + shadow.

// frameRef names one frame of one node.
type frameRef struct {
	node  NodeID
	frame FrameID
}

// ShadowFrames returns the number of frames currently held by shadow
// copies across the system.
func (s *System) ShadowFrames() int { return s.nshadows }

// Shadow returns the node and frame of pg's shadow copy, or (NoNode,
// NoFrame) when it has none.
func (s *System) Shadow(pg *Page) (NodeID, FrameID) {
	if !pg.HasShadow() {
		return NoNode, NoFrame
	}
	loc := s.shadows.Value(pg)
	return loc.node, loc.frame
}

// setShadow records loc as pg's shadow copy.
func (s *System) setShadow(pg *Page, loc frameRef) {
	*s.shadows.Put(pg) = loc
	s.nshadows++
	pg.SetFlags(FlagShadow)
}

// takeShadow forgets pg's shadow copy and returns its location; the caller
// owns the frame.
func (s *System) takeShadow(pg *Page) frameRef {
	loc := s.shadows.Value(pg)
	s.shadows.Delete(pg)
	s.nshadows--
	pg.ClearFlags(FlagShadow)
	return loc
}

// PromoteWithShadow migrates pg to node dst like Migrate, but retains the
// source frame as a shadow copy instead of freeing it. The page must be
// isolated, evictable, a base page (compound pages cannot shadow — callers
// fall back to Migrate), and must not already hold a shadow. The same
// transient fault injections as Migrate apply; a failed attempt leaves the
// page untouched on its source frame.
func (s *System) PromoteWithShadow(pg *Page, dst NodeID) MigrationResult {
	return s.migrate(pg, dst, true)
}

// DemoteToShadow demotes a clean shadowed page for free: the page is
// remapped onto its retained shadow frame, the primary frame is freed, and
// no page copy is charged (only the caller-side remap/TLB tax). The page
// must be isolated and hold a shadow. This is the payoff of non-exclusive
// tiering: demotion of an unmodified page costs no bandwidth.
func (s *System) DemoteToShadow(pg *Page) MigrationResult {
	if !pg.Flags.Has(FlagIsolated) {
		panic("mem: shadow-demoting a page that is not isolated from the LRU")
	}
	if pg.OnList() {
		panic("mem: shadow-demoting a page still on a list")
	}
	if !pg.HasShadow() {
		panic("mem: shadow-demoting a page with no shadow")
	}
	src := pg.Node
	sn := s.Nodes[src]
	sn.alloc.Free(pg.Frame, 0)
	s.Counters.Frees[sn.Tier]++
	loc := s.takeShadow(pg)
	pg.Node = loc.node
	pg.Frame = loc.frame
	if s.Nodes[loc.node].Tier > sn.Tier {
		s.Counters.Demotions++
	}
	s.Counters.ShadowHits++
	return MigrationResult{OK: true, From: src, To: loc.node, Cost: 0, Tax: s.Lat.MigrationTax}
}

// DropShadow releases the page's shadow frame (a write invalidated the
// replica, lower-tier pressure reclaimed it, or the page is dying). No-op
// without a shadow, so callers need not check first.
func (s *System) DropShadow(pg *Page) {
	if !pg.HasShadow() {
		return
	}
	loc := s.takeShadow(pg)
	n := s.Nodes[loc.node]
	n.alloc.Free(loc.frame, 0)
	s.Counters.Frees[n.Tier]++
	s.Counters.ShadowDrops++
}
