package bench

import (
	"fmt"
	"os"
	"strings"

	"multiclock/internal/kvstore"
	"multiclock/internal/machine"
	"multiclock/internal/metrics"
	"multiclock/internal/snapcodec"
	"multiclock/internal/snapshot"
	"multiclock/internal/ycsb"
)

// The stepped YCSB run driver: every mcsim YCSB run and every checkpointed
// run is a Session, while the experiment cells call ycsb.Client.Run
// themselves (runSequence, runWorkloadA). A Session is one system — a
// machine, its policy, a kvstore and a YCSB client driving a fixed workload
// sequence — stepped one operation at a time so snapshots, audit
// fingerprints and invariant sweeps land exactly on quiescent op boundaries.
// With no hooks it performs exactly the operations Client.Run would. The
// session's own progress (current workload, completed results) rides the
// snapshot's config section, so a restored session reproduces the remaining
// run — and the final report — byte for byte.

// soakConfigVersion guards the config-section layout inside the container.
// Version 2 added the tier-hierarchy spec; version 3 dropped the two
// PM-slowdown words, which the fault model now holds as constants.
const soakConfigVersion = 3

// Session is one live system. It can be checkpointed unless it carries
// sinks or extra observers.
type Session struct {
	Cfg RunConfig

	M         *machine.Machine
	Store     *kvstore.Store
	Client    *ycsb.Client
	collector *metrics.Collector
	fill      func(*metrics.RunExport)
	observed  bool

	run     *ycsb.Run
	widx    int
	results []ycsb.RunResult
}

// NewSession builds and loads a fresh session. The observers attach after
// the metrics collector and its sinks and before the store is built, so a
// trace recorder among them captures the load phase.
func NewSession(cfg RunConfig, obs ...machine.Observer) (*Session, error) {
	s, err := newPristine(cfg, obs...)
	if err != nil {
		return nil, err
	}
	s.Client.Load()
	return s, nil
}

// newPristine runs the construction path shared by fresh sessions and restore
// targets: everything up to (but excluding) the load phase.
func newPristine(cfg RunConfig, obs ...machine.Observer) (*Session, error) {
	if len(cfg.Workloads) == 0 {
		return nil, fmt.Errorf("bench: a session needs at least one workload")
	}
	for _, name := range cfg.Workloads {
		if _, err := ycsb.ByName(name); err != nil {
			return nil, err
		}
	}
	if cfg.Records <= 0 || cfg.Ops <= 0 {
		return nil, fmt.Errorf("bench: a session needs positive records and ops, got %d/%d", cfg.Records, cfg.Ops)
	}
	m, err := cfg.Machine()
	if err != nil {
		return nil, err
	}
	s := &Session{Cfg: cfg, M: m, observed: len(obs) > 0}
	s.collector, s.fill = cfg.Attach(m)
	for _, o := range obs {
		m.Attach(o)
	}
	s.Store, s.Client = cfg.NewYCSB(m)
	return s, nil
}

// serializable refuses a session whose state is not all in MCSNAP: the
// sinks' and extra observers' state is not, and the sampler's and the SLO
// engine's pending events are not quiescent.
func (s *Session) serializable() error {
	if s.Cfg.Metrics && s.Cfg.Sinks != (Sinks{}) || s.observed {
		return fmt.Errorf("bench: a session with series/lifecycle/SLO/trace sinks or extra observers cannot be checkpointed: their state is not serializable")
	}
	return nil
}

// target bundles the session for the snapshot layer.
func (s *Session) target() *snapshot.Target {
	t := &snapshot.Target{M: s.M, Store: s.Store, Client: s.Client, Run: s.run}
	if s.collector != nil {
		t.Metrics = s.collector.Registry()
	}
	return t
}

// Capture snapshots the session (configuration, progress and full system
// state) into a container. The session must be at an op boundary.
func (s *Session) Capture() (*snapshot.File, error) {
	if err := s.serializable(); err != nil {
		return nil, err
	}
	return snapshot.Capture(s.target(), s.encodeSessionState())
}

// Snapshot captures and writes the session to path.
func (s *Session) Snapshot(path string) error {
	f, err := s.Capture()
	if err != nil {
		return err
	}
	return f.WriteFile(path)
}

// Fingerprint hashes every subsystem for the divergence auditor.
func (s *Session) Fingerprint() (snapshot.AuditRecord, error) {
	if err := s.serializable(); err != nil {
		return snapshot.AuditRecord{}, err
	}
	return snapshot.AuditFingerprint(s.target())
}

// RestoreSession rebuilds a session from a decoded snapshot container: the
// config section names the construction recipe and the progress; the state
// sections overwrite the pristine system.
func RestoreSession(f *snapshot.File) (*Session, error) {
	payload, ok := f.Section(snapshot.SecConfig)
	if !ok {
		return nil, &snapshot.CorruptError{Section: snapshot.SecConfig, Err: fmt.Errorf("section missing")}
	}
	cfg, widx, results, err := decodeSessionState(payload)
	if err != nil {
		return nil, &snapshot.CorruptError{Section: snapshot.SecConfig, Err: err}
	}
	s, err := newPristine(cfg)
	if err != nil {
		// The recipe decoded but describes no system that can be built.
		return nil, &snapshot.CorruptError{Section: snapshot.SecConfig, Err: err}
	}
	t := s.target()
	if err := snapshot.Restore(t, f); err != nil {
		return nil, err
	}
	s.run = t.Run
	if widx > len(cfg.Workloads) || (widx < len(cfg.Workloads) && len(results) > widx) ||
		(s.run != nil && widx >= len(cfg.Workloads)) {
		return nil, &snapshot.CorruptError{Section: snapshot.SecConfig,
			Err: fmt.Errorf("progress (workload %d of %d, %d results) is inconsistent", widx, len(cfg.Workloads), len(results))}
	}
	// The in-flight run is the one ensureRun starts for this position.
	if r := s.run; r != nil && (r.Workload().Name != cfg.Workloads[widx] || r.Ops() != cfg.Ops) {
		return nil, &snapshot.CorruptError{Section: snapshot.SecWorkload,
			Err: fmt.Errorf("in-flight run %s of %d ops, but the recipe's workload %d is %s of %d ops",
				r.Workload().Name, r.Ops(), widx, cfg.Workloads[widx], cfg.Ops)}
	}
	s.widx = widx
	s.results = results
	return s, nil
}

// SoakHooks configures the soak loop's periodic work. All cadences count
// completed workload operations across the whole session, so a restored run
// lands on exactly the boundaries the straight run would.
type SoakHooks struct {
	// SnapshotPath, with SnapshotEvery, checkpoints to this file every N ops
	// (latest wins) and once more at session end.
	SnapshotPath  string
	SnapshotEvery int64
	// Audit appends a per-subsystem hash record at every SnapshotEvery
	// boundary (with or without SnapshotPath).
	Audit *snapshot.AuditWriter
	// InvariantsEvery sweeps the machine's conservation laws every N ops.
	InvariantsEvery int64
}

// opCount is the session-global completed-op position used for hook cadence.
func (s *Session) opCount() int64 {
	n := int64(s.widx) * s.Cfg.Ops
	if s.run != nil {
		n += s.run.Done()
	}
	return n
}

// Done reports whether every workload has finished.
func (s *Session) Done() bool { return s.widx >= len(s.Cfg.Workloads) }

// Run drives the session to completion under the hooks and returns the
// deterministic report. Stepping resumes exactly where a restored snapshot
// left off.
func (s *Session) Run(h SoakHooks) (string, error) {
	for !s.Done() {
		more := s.ensureRun().Step()
		if err := s.boundary(h); err != nil {
			return "", err
		}
		if !more {
			s.finishRun()
		}
	}
	s.M.Policy.Stop()
	if h.SnapshotEvery > 0 && h.SnapshotPath != "" {
		if err := s.Snapshot(h.SnapshotPath); err != nil {
			return "", err
		}
	}
	if h.Audit != nil {
		if err := h.Audit.Flush(); err != nil {
			return "", err
		}
	}
	return s.Report(), nil
}

// ensureRun starts the current workload's run if none is in flight.
func (s *Session) ensureRun() *ycsb.Run {
	if s.run == nil {
		w, err := ycsb.ByName(s.Cfg.Workloads[s.widx])
		if err != nil {
			// Workload names were validated at construction.
			panic(err)
		}
		s.run = s.Client.StartRun(w, s.Cfg.Ops)
	}
	return s.run
}

// finishRun records the completed workload's result and advances.
func (s *Session) finishRun() {
	s.results = append(s.results, s.run.Finish())
	s.run = nil
	s.widx++
}

// RunUntil advances the session until opCount reaches n (or the session
// completes), with no hooks — the test and harness entry point for capturing
// a snapshot at an exact mid-run boundary. It performs exactly the operations
// Run would, so a Capture here equals the straight run's state at op n.
func (s *Session) RunUntil(n int64) {
	for !s.Done() && s.opCount() < n {
		more := s.ensureRun().Step()
		if !more {
			s.finishRun()
		}
	}
}

// Finish completes the remaining workloads with no hooks and returns the
// report (stopping the policy daemons).
func (s *Session) Finish() (string, error) {
	return s.Run(SoakHooks{})
}

// boundary runs the periodic hooks after one completed operation.
func (s *Session) boundary(h SoakHooks) error {
	done := s.opCount()
	if h.InvariantsEvery > 0 && done%h.InvariantsEvery == 0 {
		if err := s.M.CheckInvariants(); err != nil {
			return fmt.Errorf("bench: invariant sweep at op %d: %w", done, err)
		}
	}
	if h.SnapshotEvery > 0 && done%h.SnapshotEvery == 0 {
		if h.Audit != nil {
			rec, err := s.Fingerprint()
			if err != nil {
				return err
			}
			if err := h.Audit.Append(rec); err != nil {
				return err
			}
		}
		if h.SnapshotPath != "" {
			if err := s.Snapshot(h.SnapshotPath); err != nil {
				return err
			}
		}
	}
	return nil
}

// Report renders the session outcome; equal session state renders equal
// bytes, so a straight run and a restored run print identical reports.
func (s *Session) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "run: policy=%s workloads=%s records=%d ops/workload=%d seed=%d",
		s.Cfg.Policy, strings.Join(s.Cfg.Workloads, ","), s.Cfg.Records, s.Cfg.Ops, s.Cfg.Seed)
	if s.Cfg.Tiers != "" {
		fmt.Fprintf(&b, " tiers=%s", s.Cfg.Tiers)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-8s %14s %10s %10s %10s %10s\n", "workload", "ops/s", "mean", "p50", "p95", "p99")
	for _, r := range s.results {
		if r.Unsupported {
			fmt.Fprintf(&b, "%-8s %14s\n", r.Workload, "unsupported")
			continue
		}
		fmt.Fprintf(&b, "%-8s %14.0f %10v %10v %10v %10v\n", r.Workload, r.Throughput, r.MeanLatency, r.P50, r.P95, r.P99)
	}
	fmt.Fprintf(&b, "\npolicy: %s\nvirtual time: %v\n", s.M.Policy.Name(), s.M.Elapsed())
	fmt.Fprintln(&b, &s.M.Mem.Counters)
	if s.M.Faults != nil {
		fmt.Fprintln(&b, s.M.Faults.Counters.String())
	}
	return b.String()
}

// MetricsRun exports the session's telemetry registry and its sinks'
// sections under label, or nil when the session collects none. Call it once
// the run has finished.
func (s *Session) MetricsRun(label string) *metrics.RunExport {
	if s.collector == nil {
		return nil
	}
	run := s.collector.Run(label)
	s.fill(&run)
	return &run
}

// reconcileAudit rewrites an audit trail so that resuming from this session
// continues it exactly where a straight run would be: records past the
// restore point are dropped (the resumed run will regenerate them), and the
// restore boundary's own record is recomputed in case the dying run was
// killed between writing the snapshot and appending its fingerprint. A
// session restored at completion keeps the trail untouched — it is already
// complete and no further boundaries will fire.
func (s *Session) reconcileAudit(path string, every int64) error {
	var recs []snapshot.AuditRecord
	if f, err := os.Open(path); err == nil {
		recs, err = snapshot.ReadAudit(f)
		f.Close()
		if err != nil {
			return err
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	keep := recs
	if !s.Done() {
		cur, err := s.Fingerprint()
		if err != nil {
			return err
		}
		keep = keep[:0]
		for _, r := range recs {
			if r.Op < cur.Op {
				keep = append(keep, r)
			}
		}
		if n := s.opCount(); n > 0 && n%every == 0 {
			keep = append(keep, cur)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := snapshot.NewAuditWriter(f)
	for _, r := range keep {
		if err := w.Append(r); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ResumeSession reads, verifies and restores the session checkpointed to
// the snapshot file at path; the snapshot's recipe is the one that runs. A
// run that must export metrics is refused here, before its first step, when
// the snapshot carries no telemetry registry. A run that keeps an audit
// trail (the file audit, appended every snapshotEvery ops) has the trail
// reconciled to the restore point, so the resumed trail continues the same
// file and still compares clean against a straight run.
func ResumeSession(path string, exportMetrics bool, audit string, snapshotEvery int64) (*Session, error) {
	f, err := snapshot.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := RestoreSession(f)
	if err != nil {
		return nil, err
	}
	if exportMetrics && s.collector == nil {
		return nil, fmt.Errorf("%s: snapshot carries no telemetry registry; cannot export metrics", path)
	}
	if audit != "" && snapshotEvery > 0 {
		if err := s.reconcileAudit(audit, snapshotEvery); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Drive runs the session to completion under h and returns the report. A
// non-empty audit names the file the fingerprints are appended to; Drive
// opens it and sets h.Audit.
func (s *Session) Drive(h SoakHooks, audit string) (string, error) {
	if audit != "" {
		af, err := os.OpenFile(audit, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return "", err
		}
		defer af.Close()
		h.Audit = snapshot.NewAuditWriter(af)
	}
	return s.Run(h)
}

// encodeSessionState renders the config section: the construction recipe plus
// the session progress (completed results travel here so a restored session
// can finish the report).
func (s *Session) encodeSessionState() []byte {
	c := snapcodec.NewWriter()
	checkpointSession(c, &s.Cfg, &s.widx, &s.results)
	return c.Bytes()
}

// decodeSessionState parses the config section back into a recipe and the
// saved progress.
func decodeSessionState(payload []byte) (cfg RunConfig, widx int, results []ycsb.RunResult, err error) {
	c := snapcodec.NewReader(payload)
	if err := checkpointSession(c, &cfg, &widx, &results); err != nil {
		return RunConfig{}, 0, nil, err
	}
	if err := c.Finish(); err != nil {
		return RunConfig{}, 0, nil, err
	}
	return cfg, widx, results, nil
}

// checkpointSession codes the config section: the versioned recipe, then
// the index of the workload in progress and the completed results.
func checkpointSession(c *snapcodec.Codec, cfg *RunConfig, widx *int, results *[]ycsb.RunResult) error {
	v := uint32(soakConfigVersion)
	snapcodec.U32(c, &v)
	if c.Err() == nil && v != soakConfigVersion {
		return fmt.Errorf("soak config version %d (this build reads %d)", v, soakConfigVersion)
	}
	c.String(&cfg.Policy)
	nw := len(cfg.Workloads)
	snapcodec.I64(c, &nw)
	if c.Err() != nil {
		return c.Err()
	}
	if nw <= 0 || nw > c.Remaining() {
		return fmt.Errorf("soak config claims %d workloads", nw)
	}
	if c.Reading() {
		cfg.Workloads = make([]string, nw)
	}
	for i := range cfg.Workloads {
		c.String(&cfg.Workloads[i])
	}
	snapcodec.I64(c, &cfg.Records)
	snapcodec.I64(c, &cfg.Ops)
	snapcodec.I64(c, &cfg.DRAMPages)
	snapcodec.I64(c, &cfg.PMPages)
	c.String(&cfg.Tiers)
	snapcodec.I64(c, &cfg.Interval)
	snapcodec.U64(c, &cfg.Seed)
	snapcodec.U64(c, &cfg.Chaos.Seed)
	nr := len(cfg.Chaos.Rates)
	snapcodec.I64(c, &nr)
	if c.Err() != nil {
		return c.Err()
	}
	if nr != len(cfg.Chaos.Rates) {
		return fmt.Errorf("soak config carries %d fault rates, this build has %d", nr, len(cfg.Chaos.Rates))
	}
	for i := range cfg.Chaos.Rates {
		snapcodec.F64(c, &cfg.Chaos.Rates[i])
	}
	c.Bool(&cfg.Metrics)
	snapcodec.I64(c, &cfg.TraceEvents)

	snapcodec.I64(c, widx)
	n := len(*results)
	snapcodec.I64(c, &n)
	if c.Err() != nil {
		return c.Err()
	}
	if *widx < 0 || n < 0 || n > c.Remaining() {
		return fmt.Errorf("soak progress claims workload %d, %d results", *widx, n)
	}
	if c.Reading() {
		*results = make([]ycsb.RunResult, n)
	}
	for i := range *results {
		r := &(*results)[i]
		c.String(&r.Workload)
		snapcodec.I64(c, &r.Ops)
		snapcodec.I64(c, &r.Elapsed)
		snapcodec.F64(c, &r.Throughput)
		snapcodec.I64(c, &r.P50)
		snapcodec.I64(c, &r.P95)
		snapcodec.I64(c, &r.P99)
		snapcodec.I64(c, &r.MeanLatency)
		c.Bool(&r.Unsupported)
	}
	return c.Err()
}
