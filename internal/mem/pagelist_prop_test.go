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
	// FromBack counts positions, tombstones included: exact on a list
	// without holes, otherwise nil or a page no further from the tail.
	holes := int(l.back-l.front) != l.size
	for n := 0; n < 3; n++ {
		var want *Page
		if n < len(m) {
			want = m[len(m)-1-n]
		}
		got := l.FromBack(n)
		if !holes && got != want || got != nil && m.index(got) < len(m)-1-n {
			return fmt.Errorf("FromBack(%d) disagrees with the model", n)
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
		op := rng.Intn(10)
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
