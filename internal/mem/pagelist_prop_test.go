package mem

import (
	"fmt"
	"testing"

	"multiclock/internal/sim"
)

// listModel is the reference PageList: a plain slice, head first.
type listModel []*Page

func (m listModel) index(pg *Page) int {
	for i, q := range m {
		if q == pg {
			return i
		}
	}
	return -1
}

func (m listModel) without(i int) listModel {
	return append(m[:i:i], m[i+1:]...)
}

func (m listModel) withFront(pg *Page) listModel {
	return append(listModel{pg}, m...)
}

// ageRun is the reference AgeRun: the per-page aging step and a rotation, one
// page at a time, on the slice. It works on the pages' real bits, so the
// caller runs it on a twin of the list under test (see ageTwin).
func (m listModel) ageRun(n, stop int) (after listModel, run, referenced int) {
	if len(m) < 2 {
		return m, 0, 0
	}
	rest, rotated := m, listModel(nil) // rotated[0] went to the head first
	for run < n {
		if len(rest) == 0 {
			// The hand has lapped the list: the first page it rotated is
			// the tail again.
			rest, rotated = rotated.reversed(), nil
		}
		pg := rest[len(rest)-1]
		seen := 0
		if pg.Accessed {
			seen++
		}
		if pg.Flags.Has(FlagReferenced) {
			seen++
		}
		if seen >= stop {
			break
		}
		pg.ClearFlags(FlagReferenced)
		if pg.TestAndClearAccessed() {
			pg.SetFlags(FlagReferenced)
			referenced++
		}
		rest, rotated = rest[:len(rest)-1], append(rotated, pg)
		run++
	}
	return append(rotated.reversed(), rest...), run, referenced
}

func (m listModel) reversed() listModel {
	r := make(listModel, len(m))
	for i, pg := range m {
		r[len(m)-1-i] = pg
	}
	return r
}

// ageTwin returns a model holding copies of m's pages, bit for bit, for the
// reference run to age while the list under test ages the originals. A
// copy's VA is the index of its original in m.
func (m listModel) ageTwin() listModel {
	twin := make(listModel, len(m))
	for i, pg := range m {
		twin[i] = &Page{Flags: pg.Flags, Accessed: pg.Accessed, VA: uint64(i)}
	}
	return twin
}

// checkAgainst compares every read-only view of l with the model.
func checkAgainst(l *PageList, m listModel) error {
	if l.Len() != len(m) || l.Empty() != (len(m) == 0) {
		return fmt.Errorf("Len %d Empty %v, model has %d", l.Len(), l.Empty(), len(m))
	}
	var front, back *Page
	if len(m) > 0 {
		front, back = m[0], m[len(m)-1]
	}
	if l.Front() != front || l.Back() != back {
		return fmt.Errorf("Front/Back disagree with the model")
	}
	i := 0
	for pg := l.Front(); pg != nil; pg = pg.Next() {
		if i >= len(m) || pg != m[i] || pg.List() != l || !pg.OnList() {
			return fmt.Errorf("Next walk diverges at %d", i)
		}
		i++
	}
	if i != len(m) {
		return fmt.Errorf("Next walk saw %d pages, want %d", i, len(m))
	}
	i = len(m)
	for pg := l.Back(); pg != nil; pg = pg.Prev() {
		i--
		if i < 0 || pg != m[i] {
			return fmt.Errorf("Prev walk diverges at %d", i)
		}
	}
	if i != 0 {
		return fmt.Errorf("Prev walk stopped %d short of the head", i)
	}
	for name, each := range map[string]func(func(*Page)){"Each": l.Each, "EachSafe": l.EachSafe} {
		i, ok := 0, true
		each(func(pg *Page) {
			ok = ok && i < len(m) && pg == m[i]
			i++
		})
		if !ok || i != len(m) {
			return fmt.Errorf("%s diverges from the model", name)
		}
	}
	return nil
}

// TestPageListAgainstModel drives the ring through seeded random operations,
// with the population steered across several grow and squeeze thresholds and
// down to empty and back, and compares every view with a slice after each
// step.
func TestPageListAgainstModel(t *testing.T) {
	const steps = 120_000
	targets := []int{40, 700, 10, 300, 0, 1500, 100, 0, 64}
	rng := sim.NewRNG(13)
	var l PageList // the zero value must be usable
	l.Name = "prop"
	var m listModel
	grows, squeezes := 0, 0
	holedRotates, fullRotates := 0, 0 // tail rotations over tombstones, and with the span filling the ring
	ageRuns, agedPages, lappedRuns, holedRuns := 0, 0, 0, 0
	push := func(front bool) {
		full, before := int(l.back-l.front) == len(l.ring), len(l.ring)
		pg := &Page{}
		if front {
			l.PushFront(pg)
			m = m.withFront(pg)
		} else {
			l.PushBack(pg)
			m = append(m, pg)
		}
		switch {
		case full && len(l.ring) > before:
			grows++
		case full:
			squeezes++
		}
	}
	for step := 0; step < steps; step++ {
		target := targets[step/(steps/len(targets))%len(targets)]
		op := rng.Intn(11)
		switch {
		case len(m) < target && op < 6, len(m) == 0 && op < 8:
			push(op%2 == 0)
		case len(m) == 0:
			if l.PopBack() != nil || l.PopFront() != nil {
				t.Fatalf("step %d: pop from an empty list returned a page", step)
			}
		case op < 3 || len(m) > target && op < 6:
			i := rng.Intn(len(m))
			l.Remove(m[i])
			if m[i].OnList() || m[i].List() != nil || m[i].Next() != nil || m[i].Prev() != nil {
				t.Fatalf("step %d: removed page still linked", step)
			}
			m = m.without(i)
		case op == 10:
			// The hand's run: bits on about one page in eight, so runs
			// end on the quota, on a stop page and (n above the length)
			// after lapping the list.
			for i := len(m) / 8; i >= 0; i-- {
				pg := m[rng.Intn(len(m))]
				pg.Accessed = rng.Intn(2) == 0
				pg.Flags = PageFlags(rng.Intn(2)) * FlagReferenced
			}
			n, stop := rng.Intn(96), 1+rng.Intn(3)
			if rng.Intn(8) == 0 {
				n = len(m) + rng.Intn(len(m)+1)
			}
			aged, wantRun, wantRef := m.ageTwin().ageRun(n, stop)
			span, ring := int(l.back-l.front), len(l.ring)
			run, ref := l.AgeRun(n, stop)
			if run != wantRun || ref != wantRef {
				t.Fatalf("step %d: AgeRun(%d, %d) on %d pages = %d, %d; the model says %d, %d", step, n, stop, len(m), run, ref, wantRun, wantRef)
			}
			if len(l.ring) != ring || int(l.back-l.front) > span {
				t.Fatalf("step %d: AgeRun reshaped the ring (%d→%d slots, span %d→%d)", step, ring, len(l.ring), span, int(l.back-l.front))
			}
			after := make(listModel, len(m))
			for i, tw := range aged {
				pg := m[tw.VA]
				if pg.Flags != tw.Flags || pg.Accessed != tw.Accessed {
					t.Fatalf("step %d: AgeRun(%d, %d) left page %d with flags %#x accessed %v; the model says %#x, %v", step, n, stop, i, pg.Flags, pg.Accessed, tw.Flags, tw.Accessed)
				}
				after[i] = pg
			}
			m = after
			ageRuns++
			agedPages += run
			if run > len(m) {
				lappedRuns++
			}
			if run > 0 && span != len(m) {
				holedRuns++
			}
		case op < 8:
			// Middle moves leave tombstones and use up a slot each,
			// which is what fills the span and forces a squeeze; the
			// tail is the scan's rotate path.
			i := len(m) - 1
			if op != 7 {
				i = rng.Intn(len(m))
			}
			pg := m[i]
			rotate := i == len(m)-1 && len(m) > 1
			span, ring := int(l.back-l.front), len(l.ring)
			l.MoveToFront(pg)
			m = m.without(i).withFront(pg)
			if rotate {
				// The hand's path must stay in place whatever the list
				// holds: no new ring, no squeeze, no longer span.
				if len(l.ring) != ring || int(l.back-l.front) > span {
					t.Fatalf("step %d: tail rotation reshaped the ring (%d→%d slots, span %d→%d)",
						step, ring, len(l.ring), span, int(l.back-l.front))
				}
				if span != len(m) {
					holedRotates++
				}
				if span == ring {
					fullRotates++
				}
			}
		case op == 8:
			if got := l.PopBack(); got != m[len(m)-1] {
				t.Fatalf("step %d: PopBack returned the wrong page", step)
			}
			m = m[:len(m)-1]
		default:
			if got := l.PopFront(); got != m[0] {
				t.Fatalf("step %d: PopFront returned the wrong page", step)
			}
			m = m[1:]
		}
		if step%997 == 0 {
			// EachSafe while removing the current page, every third one.
			var kept listModel
			i := 0
			l.EachSafe(func(pg *Page) {
				if i%3 == 0 {
					l.Remove(pg)
				} else {
					kept = append(kept, pg)
				}
				i++
			})
			m = kept
		}
		if err := checkAgainst(&l, m); err != nil {
			t.Fatalf("step %d (target %d): %v", step, target, err)
		}
	}
	t.Logf("grows %d squeezes %d, tail rotations: %d tombstoned, %d ring-filling", grows, squeezes, holedRotates, fullRotates)
	if grows < 5 || squeezes < 5 {
		t.Fatalf("run crossed %d grow and %d squeeze thresholds, want several of each", grows, squeezes)
	}
	if holedRotates < 100 || fullRotates < 5 {
		t.Fatalf("run rotated %d tombstoned and %d ring-filling tails, want many of each", holedRotates, fullRotates)
	}
	t.Logf("AgeRun: %d runs over %d pages, %d lapped the list, %d over tombstones", ageRuns, agedPages, lappedRuns, holedRuns)
	if ageRuns < 1000 || agedPages < 20*ageRuns || lappedRuns < 10 || holedRuns < 100 {
		t.Fatal("AgeRun was not exercised: want many runs, long ones, some lapping the list and many over tombstones")
	}
}

// TestPageListRotateTail walks the tail rotation through the shapes the random
// run only meets by chance: a hole-free list, tombstones directly before the
// tail, a span that fills the ring with and without tombstones, and the
// one-page list.
func TestPageListRotateTail(t *testing.T) {
	build := func(n int) (*PageList, listModel) {
		l := &PageList{Name: "rotate"}
		var m listModel
		for i := 0; i < n; i++ {
			pg := &Page{}
			l.PushBack(pg)
			m = append(m, pg)
		}
		return l, m
	}
	rotate := func(t *testing.T, l *PageList, m listModel) listModel {
		t.Helper()
		ring, tail := len(l.ring), m[len(m)-1]
		l.MoveToFront(tail)
		m = m.without(len(m) - 1).withFront(tail)
		if err := checkAgainst(l, m); err != nil {
			t.Fatal(err)
		}
		if len(l.ring) != ring || int(l.back-l.front) > ring {
			t.Fatalf("rotation reshaped the ring: %d→%d slots, span %d", ring, len(l.ring), l.back-l.front)
		}
		return m
	}
	remove := func(l *PageList, m listModel, i int) listModel {
		l.Remove(m[i])
		return m.without(i)
	}

	t.Run("hole-free ring-filling", func(t *testing.T) {
		l, m := build(16) // the first ring is 16 slots
		for i := 0; i < 40; i++ {
			m = rotate(t, l, m)
		}
	})
	t.Run("tombstones before the tail", func(t *testing.T) {
		l, m := build(12)
		m = remove(l, m, 10)
		m = remove(l, m, 9)
		m = remove(l, m, 4)
		back := l.back
		m = rotate(t, l, m)
		if l.back != back-3 {
			t.Fatalf("tail end moved %d positions, want 3 (the page and two tombstones)", back-l.back)
		}
		for i := 0; i < 30; i++ {
			m = rotate(t, l, m)
		}
	})
	t.Run("ring-filling with tombstones", func(t *testing.T) {
		l, m := build(16)
		m = remove(l, m, 14)
		m = remove(l, m, 13)
		m = remove(l, m, 2)
		if int(l.back-l.front) != len(l.ring) {
			t.Fatal("span does not fill the ring")
		}
		// The head takes the slot the tail just left.
		slot := (l.back - 1) & l.mask()
		m = rotate(t, l, m)
		if l.front&l.mask() != slot {
			t.Fatalf("head in slot %d, want the vacated slot %d", l.front&l.mask(), slot)
		}
		for i := 0; i < 40; i++ {
			m = rotate(t, l, m)
		}
	})
	t.Run("single page", func(t *testing.T) {
		l, m := build(1)
		rotate(t, l, m)
		if run, _ := l.AgeRun(4, 3); run != 0 {
			t.Fatalf("AgeRun rotated %d pages of a one-page list", run)
		}
	})
	t.Run("AgeRun is MoveToFront of the tail", func(t *testing.T) {
		// One helper rotates for both, so twin lists driven one way each
		// hold the same slots at the same positions after every rotation,
		// tombstones before the tail and a ring-filling span included.
		a, ma := build(16)
		b, mb := build(16)
		for _, i := range []int{14, 13, 9, 2} {
			ma, mb = remove(a, ma, i), remove(b, mb, i)
		}
		for i := 0; i < 40; i++ {
			a.MoveToFront(a.Back())
			if run, ref := b.AgeRun(1, 3); run != 1 || ref != 0 {
				t.Fatalf("rotation %d: AgeRun(1, 3) = %d, %d", i, run, ref)
			}
			if a.front != b.front || a.back != b.back {
				t.Fatalf("rotation %d: spans [%d, %d) and [%d, %d)", i, a.front, a.back, b.front, b.back)
			}
			for p := a.front; p < a.back; p++ {
				pa, pb := a.at(p), b.at(p)
				if (pa == nil) != (pb == nil) || pa != nil && ma.index(pa) != mb.index(pb) {
					t.Fatalf("rotation %d: position %d differs", i, p)
				}
			}
		}
	})
}

func TestPageListPanicMessages(t *testing.T) {
	panicOf := func(fn func()) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		fn()
		return
	}
	a, b := &PageList{Name: "a"}, &PageList{Name: "b"}
	pg, loose := &Page{}, &Page{}
	a.PushBack(pg)
	for _, c := range []struct {
		name string
		fn   func()
		want string
	}{
		{"double PushBack", func() { b.PushBack(pg) }, `mem: page already on list "a", inserting into "b"`},
		{"double PushFront", func() { a.PushFront(pg) }, `mem: page already on list "a", inserting into "a"`},
		{"Remove from the wrong list", func() { b.Remove(pg) }, `mem: Remove from "b" but page is on a`},
		{"Remove of a page on no list", func() { a.Remove(loose) }, `mem: Remove from "a" but page is on <none>`},
		{"MoveToFront on the wrong list", func() { b.MoveToFront(pg) }, `mem: Remove from "b" but page is on a`},
	} {
		if got := panicOf(c.fn); got != c.want {
			t.Errorf("%s: panic %q, want %q", c.name, got, c.want)
		}
	}
	if a.Len() != 1 || a.Front() != pg || b.Len() != 0 {
		t.Fatal("a refused operation changed a list")
	}
}
