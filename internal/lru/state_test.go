package lru

import (
	"testing"

	"multiclock/internal/mem"
)

// recordingHook appends one tagged entry per observed transition.
type recordingHook struct {
	tag string
	log *[]string
}

func (r *recordingHook) PageTransition(pg *mem.Page, node mem.NodeID, from, to State, cause Cause) {
	*r.log = append(*r.log, r.tag+":"+cause.String())
}

func TestAddHookFanOut(t *testing.T) {
	v := NewVec(0)
	var log []string
	v.AddHook(&recordingHook{tag: "a", log: &log})
	v.AddHook(&recordingHook{tag: "b", log: &log})
	v.AddHook(&recordingHook{tag: "c", log: &log})

	pg := anonPage()
	v.Add(pg)
	// Every observer sees the add, in registration order.
	if len(log) != 3 || log[0] != "a:add" || log[1] != "b:add" || log[2] != "c:add" {
		t.Fatalf("fan-out log = %v, want [a:add b:add c:add]", log)
	}
	log = log[:0]
	v.Isolate(pg)
	if len(log) != 3 || log[0] != "a:isolate" || log[2] != "c:isolate" {
		t.Fatalf("fan-out log = %v, want three isolate entries", log)
	}
}

func TestAddHookSameHookTwice(t *testing.T) {
	v := NewVec(0)
	var log []string
	h := &recordingHook{tag: "h", log: &log}
	v.AddHook(h)
	v.AddHook(h)

	v.Add(anonPage())
	if len(log) != 2 {
		t.Fatalf("double-registered hook fired %d times, want 2", len(log))
	}
}

// transitionHook keeps every transition it observes.
type transitionHook struct {
	got []transition
}

type transition struct {
	node     mem.NodeID
	from, to State
	cause    Cause
}

func (h *transitionHook) PageTransition(pg *mem.Page, node mem.NodeID, from, to State, cause Cause) {
	h.got = append(h.got, transition{node, from, to, cause})
}

// Every cause has its own wire name; Note delivers an outcome as a
// transition from the page's state to itself, while emit still drops the
// self-transitions of the list operations.
func TestCauseNamesAndNote(t *testing.T) {
	seen := map[string]Cause{}
	for c := Cause(0); c < NumCauses; c++ {
		name := c.String()
		if name == "" {
			t.Errorf("cause %d has no wire name", c)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("causes %d and %d share the wire name %q", prev, c, name)
		}
		seen[name] = c
	}

	v := NewVec(3)
	pg := anonPage()
	v.Note(pg, CauseFreed) // hookless: nothing to deliver, nothing to panic
	h := &transitionHook{}
	v.AddHook(h)
	v.Add(pg)
	h.got = nil
	for c := CauseMigrateFail; c < NumCauses; c++ {
		v.Note(pg, c)
	}
	if len(h.got) != int(NumCauses-CauseMigrateFail) {
		t.Fatalf("%d notes delivered, want %d", len(h.got), NumCauses-CauseMigrateFail)
	}
	for i, tr := range h.got {
		want := transition{3, StateInactiveUnref, StateInactiveUnref, CauseMigrateFail + Cause(i)}
		if tr != want {
			t.Errorf("note %d delivered %+v, want %+v", i, tr, want)
		}
	}

	h.got = nil
	v.emit(pg, StateOf(pg), CauseAccess)
	if len(h.got) != 0 {
		t.Fatalf("emit delivered a self-transition: %+v", h.got)
	}
}

// With no hooks registered the emit path must stay on its nil fast path:
// preState returns the sentinel without decoding page flags.
func TestPreStateHooklessSentinel(t *testing.T) {
	v := NewVec(0)
	pg := anonPage()
	v.Add(pg)
	if got := v.preState(pg); got != StateGone {
		t.Fatalf("hookless preState = %v, want StateGone sentinel", got)
	}
	v.AddHook(&recordingHook{tag: "x", log: new([]string)})
	if got := v.preState(pg); got == StateGone {
		t.Fatal("preState still sentinel with a hook attached")
	}
}
