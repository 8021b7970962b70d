package lru

import (
	"fmt"

	"multiclock/internal/mem"
	"multiclock/internal/snapcodec"
)

// Checkpoint serialization for one node's LRU lists. At a quiescent
// snapshot point every resident page sits on exactly one list (machine-level
// invariants enforce used = on-lists + shadow frames), so the vec walk is
// the canonical enumeration of live page descriptors: each record is a full
// mem page state, written head→tail per list so restore reproduces exact
// CLOCK hand order.

// Checkpoint codes the vec: the scan counter, then every list with its
// resident page records in head→tail order. page codes one record: writing,
// page(pg) writes pg's; reading, page(nil) reads one into a fresh registered
// descriptor and returns it, or the reason the record is invalid (the caller
// wires it to mem.System's CheckpointPage/RestorePage plus its seq→page
// registry), and the vec rebuilds the lists of an empty vec. Pages are
// appended with PushBack — head first —
// bypassing Add's flag transitions, because the records already carry the
// exact flags each page held at snapshot time; the flags are still
// cross-checked against the list they were recorded on.
func (v *Vec) Checkpoint(c *snapcodec.Codec, page func(*mem.Page) (*mem.Page, error)) error {
	snapcodec.I64(c, &v.Scanned)
	for k := Kind(0); k < NumKinds; k++ {
		l := &v.lists[k]
		n := l.Len()
		snapcodec.I64(c, &n)
		if c.Err() != nil {
			return c.Err()
		}
		if !c.Reading() {
			for pg := l.Front(); pg != nil; pg = pg.Next() {
				if _, err := page(pg); err != nil {
					return err
				}
			}
			continue
		}
		if n < 0 {
			return fmt.Errorf("lru: negative %v population %d", k, n)
		}
		for i := 0; i < n; i++ {
			pg, err := page(nil)
			if err != nil {
				return err
			}
			if want := kindFor(pg); want != k {
				return fmt.Errorf("lru: restored page flags select %v but page was recorded on %v", want, k)
			}
			if pg.Node != v.Node {
				return fmt.Errorf("lru: node %d page recorded on node %d's %v list", pg.Node, v.Node, k)
			}
			l.PushBack(pg)
		}
	}
	return c.Err()
}
