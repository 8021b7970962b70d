package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"multiclock/internal/machine"
	"multiclock/internal/mem"
	"multiclock/internal/pagetable"
	"multiclock/internal/sim"
)

// The traced pass observes the simulator from outside only: a timing
// decorator over machine.Policy, a sim.PassHook on Clock.Hook and a
// machine.Observer. Spans inside the simulator's packages are a later
// change; what these three cannot split is split by the ladder of control
// runs (ladder.go).

// span is one timed interval of the traced run. Times are host nanoseconds
// since the run began. A batch's children are aggregates: one span per
// callee name per batch, starting at the first call and as long as all of
// that batch's calls together.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Batch is the identifier the spans of one workload batch share; -1
	// outside the measured region.
	Batch int   `json:"batch"`
	Calls int64 `json:"calls,omitempty"`
}

// callAgg accumulates one callee's time within a batch and over the run.
type callAgg struct {
	first      int64
	batchNS    int64
	batchCalls int64
	totalNS    int64
	totalCalls int64
}

// accessRec is one recorded application access: enough to issue it again
// at the same virtual instant. Eight bytes, because one PageRank call is
// 17.6 M accesses and a replay needs at least one whole batch.
type accessRec struct {
	// key is vpn<<5 | space<<1 | write: pagetable.MaxVPN has 27 bits, and no
	// workload here has 16 address spaces.
	key uint32
	// dt is the virtual time since the previous recorded access, in ns.
	dt uint32
}

func (r accessRec) space() int         { return int(r.key >> 1 & 0xf) }
func (r accessRec) vpn() pagetable.VPN { return pagetable.VPN(r.key >> 5) }
func (r accessRec) write() bool        { return r.key&1 != 0 }

// maxRecorded bounds the recorded stream (192 MiB, touched only as far as
// it fills).
const maxRecorded = 24 << 20

type tracer struct {
	t0    time.Time
	spans []span
	root  int

	batch      int
	batchStart int64
	batchesNS  int64
	calls      map[string]*callAgg
	names      []string // callee names in first-seen order

	// accessCalls counts Policy.Access calls; at ~120 ns per clock read
	// pair they are counted, not timed (a driver times the call alone).
	accessCalls int64

	recs     []accessRec
	recStart sim.Time // virtual instant the recording's first dt counts from
	recLast  sim.Time
	observed int64 // application accesses seen, recorded or not
	// marks[i] is len(recs) at the end of batch i, for the batches recorded
	// whole: a replay times the same batches as the run it replays.
	marks []int

	m      *machine.Machine
	detach func()
}

func newTracer() *tracer {
	// The stream buffer is reserved whole: growing it by append inside the
	// measured region would cost more host time than everything it observes.
	return &tracer{batch: -1, calls: map[string]*callAgg{}, recs: make([]accessRec, 0, maxRecorded)}
}

func (t *tracer) ns() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) addSpan(parent int, name string, start, end int64, batch int, calls int64) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end, Batch: batch, Calls: calls})
	return id
}

// start opens the run: the set-up that just finished becomes a span, and
// the daemon hook and access recorder go on for the measured region only.
func (t *tracer) start(inst *instance, setupBegan time.Time) {
	t.t0 = setupBegan
	t.root = t.addSpan(0, "run", 0, 0, -1, 0)
	t.addSpan(t.root, "setup", 0, t.ns(), -1, 0)
	t.accessCalls = 0
	t.m = inst.m
	t.recStart = t.m.Clock.Now()
	t.recLast = t.recStart
	t.m.Clock.Hook = t
	t.detach = t.m.Attach(t)
}

func (t *tracer) finish() {
	t.m.Clock.Hook = nil
	t.detach()
	t.spans[t.root-1].End = t.ns()
}

func (t *tracer) beginBatch(i int) {
	t.batch = i
	t.batchStart = t.ns()
}

func (t *tracer) endBatch() {
	end := t.ns()
	id := t.addSpan(t.root, "batch", t.batchStart, end, t.batch, 0)
	t.batchesNS += end - t.batchStart
	for _, name := range t.names {
		c := t.calls[name]
		if c.batchCalls == 0 {
			continue
		}
		t.addSpan(id, name, c.first, c.first+c.batchNS, t.batch, c.batchCalls)
		c.batchNS, c.batchCalls = 0, 0
	}
	if t.observed == int64(len(t.recs)) {
		t.marks = append(t.marks, len(t.recs))
	}
	t.batch = -1
}

// timed runs fn as one call of name inside the current batch. Outside the
// measured region (the decorator is in place from machine construction)
// it only runs fn.
func (t *tracer) timed(name string, fn func()) {
	if t.batch < 0 {
		fn()
		return
	}
	start := t.ns()
	fn()
	d := t.ns() - start
	c := t.calls[name]
	if c == nil {
		c = &callAgg{}
		t.calls[name] = c
		t.names = append(t.names, name)
	}
	if c.batchCalls == 0 {
		c.first = start
	}
	c.batchNS += d
	c.batchCalls++
	c.totalNS += d
	c.totalCalls++
}

func (t *tracer) total(name string) (ns, calls int64) {
	if c := t.calls[name]; c != nil {
		return c.totalNS, c.totalCalls
	}
	return 0, 0
}

// daemonTotals sums every daemon.<name> callee.
func (t *tracer) daemonTotals() (ns, calls int64) {
	for name, c := range t.calls {
		if strings.HasPrefix(name, "daemon.") {
			ns += c.totalNS
			calls += c.totalCalls
		}
	}
	return ns, calls
}

// DaemonPass implements sim.PassHook.
func (t *tracer) DaemonPass(d *sim.Daemon, run func()) {
	t.timed("daemon."+d.Name, run)
}

// OnAccess implements machine.Observer: it records the access stream the
// ladder replays.
func (t *tracer) OnAccess(pg *mem.Page, write bool, at sim.Time) {
	t.observed++
	if len(t.recs) < maxRecorded {
		dt := at - t.recLast
		if pg.Space < 0 || pg.Space >= 16 || dt > math.MaxUint32 {
			panic("benchmarks: access does not fit the recording format")
		}
		key := uint32(pagetable.VPNOf(pg.VA))<<5 | uint32(pg.Space)<<1
		if write {
			key |= 1
		}
		t.recs = append(t.recs, accessRec{key: key, dt: uint32(dt)})
		t.recLast = at
	}
}

// OnMigrate implements machine.Observer.
func (t *tracer) OnMigrate(*mem.Page, mem.NodeID, mem.NodeID, sim.Time) {}

// OnFault implements machine.Observer.
func (t *tracer) OnFault(*mem.Page, bool, sim.Time) {}

// wrap returns the timing decorator over p.
func (t *tracer) wrap(p machine.Policy) machine.Policy {
	return &timedPolicy{Policy: p, t: t}
}

// timedPolicy decorates a policy: the rare, heavy entry points are timed,
// the per-access ones counted.
type timedPolicy struct {
	machine.Policy
	t *tracer
}

func (p *timedPolicy) Access(pg *mem.Page, write bool) sim.Duration {
	p.t.accessCalls++ // start zeroes the count set-up ran up
	return p.Policy.Access(pg, write)
}

func (p *timedPolicy) HintFault(pg *mem.Page, write bool) {
	p.t.timed("policy.HintFault", func() { p.Policy.HintFault(pg, write) })
}

func (p *timedPolicy) Pressure(node mem.NodeID) {
	p.t.timed("policy.Pressure", func() { p.Policy.Pressure(node) })
}

func (p *timedPolicy) DirectReclaim(n int) (freed int) {
	p.t.timed("policy.DirectReclaim", func() { freed = p.Policy.DirectReclaim(n) })
	return freed
}

// writeTrace writes the spans of the traced runs, one entry per workload.
func writeTrace(path string, byWorkload map[string][]span) error {
	type entry struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}
	var doc struct {
		Schema string  `json:"schema"`
		Runs   []entry `json:"runs"`
	}
	doc.Schema = "multiclock/benchmarks/trace/v1"
	for name, spans := range byWorkload {
		doc.Runs = append(doc.Runs, entry{name, spans})
	}
	sort.Slice(doc.Runs, func(i, j int) bool { return doc.Runs[i].Workload < doc.Runs[j].Workload })
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
