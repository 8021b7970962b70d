package lru

import (
	"fmt"

	"multiclock/internal/mem"
)

// State is the observable position of a page in the Fig. 4 state machine:
// the list it sits on refined by its referenced bit. Unlike Kind, State
// also covers pages that are off the lists entirely (isolated for
// migration, or gone from LRU bookkeeping).
type State uint8

const (
	// StateGone: not on any list and not isolated — freshly allocated,
	// unmapped, or swapped out.
	StateGone State = iota
	StateInactiveUnref
	StateInactiveRef
	StateActiveUnref
	StateActiveRef
	StatePromoteUnref
	StatePromoteRef
	StateUnevictable
	// StateIsolated: detached for migration (FlagIsolated set).
	StateIsolated
	NumStates
)

var stateNames = [NumStates]string{
	"gone",
	"inactive-unref", "inactive-ref",
	"active-unref", "active-ref",
	"promote-unref", "promote-ref",
	"unevictable", "isolated",
}

// String returns the stable wire name used in lifecycle exports.
func (s State) String() string {
	if s >= NumStates {
		return fmt.Sprintf("State(%d)", uint8(s))
	}
	return stateNames[s]
}

// StateOf derives a page's Fig. 4 state from its flags alone.
func StateOf(pg *mem.Page) State {
	switch {
	case pg.Flags.Has(mem.FlagIsolated):
		return StateIsolated
	case !pg.Flags.Has(mem.FlagLRU):
		return StateGone
	case pg.Flags.Has(mem.FlagUnevictable):
		return StateUnevictable
	}
	ref := pg.Flags.Has(mem.FlagReferenced)
	switch {
	case pg.Flags.Has(mem.FlagPromote):
		if ref {
			return StatePromoteRef
		}
		return StatePromoteUnref
	case pg.Flags.Has(mem.FlagActive):
		if ref {
			return StateActiveRef
		}
		return StateActiveUnref
	default:
		if ref {
			return StateInactiveRef
		}
		return StateInactiveUnref
	}
}

// Cause names what produced a state transition: an LRU operation, or an
// outcome the lists do not show (a migration's result, a policy's retry
// decision, the page's death), which Note reports with from == to.
type Cause uint8

const (
	// CauseAdd: the page entered this vec's lists (birth fault, huge-page
	// split, or arrival after migration via Add).
	CauseAdd Cause = iota
	// CauseAccess: MarkAccessed applied an observed access (Fig. 4
	// transitions 1, 6, 7, 10, 12).
	CauseAccess
	// CauseDecay: a scan window passed without access — referenced state
	// spent (2 and twins) or promote decay (11).
	CauseDecay
	// CauseDeactivate: active→inactive under the active:inactive ratio
	// limit (9).
	CauseDeactivate
	// CauseIsolate: detached from the lists for migration.
	CauseIsolate
	// CausePutback: an isolated page returned to the lists (migration
	// finished, failed, or was parked).
	CausePutback
	// CauseDelete: removed from the lists for unmap/free/swap-out.
	CauseDelete

	// The outcomes below are noted (Note), never emitted: a migration
	// attempt's result — failed on the source vec, or succeeded to a
	// faster tier, a slower one or the same tier on the destination vec —
	// a policy's retry decision after a failure, and the page's death.
	CauseMigrateFail
	CausePromoted
	CauseDemoted
	CauseMigrated
	CausePromoteRequeue
	CausePromoteDrop
	CauseDemoteRequeue
	CauseSwapFallback
	CauseSwapOut
	CauseFreed
	NumCauses
)

var causeNames = [NumCauses]string{
	"add", "access", "decay", "deactivate", "isolate", "putback", "delete",
	"migrate-fail", "promoted", "demoted", "migrated",
	"promote-requeue", "promote-drop", "demote-requeue", "swap-fallback",
	"swap-out", "freed",
}

// String returns the stable wire name used in lifecycle exports.
func (c Cause) String() string {
	if c >= NumCauses {
		return fmt.Sprintf("Cause(%d)", uint8(c))
	}
	return causeNames[c]
}

// Hook observes page state transitions on a vec. Implementations must be
// purely observational: they may not touch pages, lists, or virtual time.
// Self-transitions (from == to) of the LRU operations are filtered out
// before the hook is called; a noted outcome always arrives with from == to.
type Hook interface {
	PageTransition(pg *mem.Page, node mem.NodeID, from, to State, cause Cause)
}

// multiHook fans a transition out to several observers in registration
// order.
type multiHook []Hook

func (m multiHook) PageTransition(pg *mem.Page, node mem.NodeID, from, to State, cause Cause) {
	for _, h := range m {
		h.PageTransition(pg, node, from, to, cause)
	}
}

// AddHook registers a transition observer alongside any already attached.
// Observers fire in registration order; with none registered the hot path
// pays only a nil check.
func (v *Vec) AddHook(h Hook) {
	switch cur := v.hook.(type) {
	case nil:
		v.hook = h
	case multiHook:
		v.hook = append(cur, h)
	default:
		v.hook = multiHook{cur, h}
	}
}

// Note reports an outcome the lists do not show to the vec's hook, as a
// transition from the page's state to itself.
func (v *Vec) Note(pg *mem.Page, cause Cause) {
	if v.hook == nil {
		return
	}
	s := StateOf(pg)
	v.hook.PageTransition(pg, v.Node, s, s, cause)
}

// preState snapshots the page's state for a later emit. With no hook
// attached it skips the flag decode entirely — state bracketing is pure
// observability, and the access fast path must not pay for an observer
// that is not there.
func (v *Vec) preState(pg *mem.Page) State {
	if v.hook == nil {
		return StateGone
	}
	return StateOf(pg)
}

// emit reports a state change to the hook, suppressing self-transitions.
// from must come from preState on the same vec; the post-state is derived
// here so hookless vecs never compute it.
func (v *Vec) emit(pg *mem.Page, from State, cause Cause) {
	if v.hook == nil {
		return
	}
	if to := StateOf(pg); from != to {
		v.hook.PageTransition(pg, v.Node, from, to, cause)
	}
}

// spendReferenced clears the software referenced flag as a decay step,
// reporting the transition. The three scanner second-chance sites share it
// so referenced decay is observable everywhere it happens.
func (v *Vec) spendReferenced(pg *mem.Page) {
	if !pg.Flags.Has(mem.FlagReferenced) {
		return
	}
	from := v.preState(pg)
	pg.ClearFlags(mem.FlagReferenced)
	v.emit(pg, from, CauseDecay)
}
