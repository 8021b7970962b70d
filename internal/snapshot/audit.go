package snapshot

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
)

// The divergence auditor. A harness running with -audit captures the system
// at every checkpoint boundary and appends one JSONL record of per-section
// state hashes (the container's fnv-1a section checksums — equal state,
// equal bytes, equal hash). Two audit trails from runs that should be
// identical — straight vs restored, two builds, two hosts — are then
// scanned to the first diverging boundary and the subsystems that differ,
// turning "the reports differ" into "the policy section first diverged at op
// 41200, vtime 3.1s".

// AuditRecord is one checkpoint boundary's fingerprint.
type AuditRecord struct {
	// Op is the operation count at the boundary (machine.Ops).
	Op int64 `json:"op"`
	// VTime is the virtual clock in nanoseconds.
	VTime int64 `json:"vtime_ns"`
	// Hashes maps section name to its fnv-1a 64 state hash, hex-encoded.
	Hashes map[string]string `json:"hashes"`
}

// AuditFingerprint builds one record from a capture of the target.
func AuditFingerprint(t *Target) (AuditRecord, error) {
	f, err := Capture(t, nil)
	if err != nil {
		return AuditRecord{}, err
	}
	rec := AuditRecord{
		Op:     t.M.Ops,
		VTime:  int64(t.M.Clock.Now()),
		Hashes: make(map[string]string, len(f.Sections())),
	}
	for _, name := range f.Sections() {
		if name == SecConfig {
			continue // caller-opaque, not state
		}
		rec.Hashes[name] = fmt.Sprintf("%016x", f.Hash(name))
	}
	return rec, nil
}

// AuditWriter appends records to a JSONL stream.
type AuditWriter struct {
	w   *bufio.Writer
	enc *json.Encoder
}

// NewAuditWriter wraps w.
func NewAuditWriter(w io.Writer) *AuditWriter {
	bw := bufio.NewWriter(w)
	return &AuditWriter{w: bw, enc: json.NewEncoder(bw)}
}

// Append writes one record (json.Encoder emits map keys sorted, so equal
// records are byte-equal lines) and flushes it, so a process killed between
// checkpoints never loses an already-recorded boundary.
func (a *AuditWriter) Append(rec AuditRecord) error {
	if err := a.enc.Encode(rec); err != nil {
		return err
	}
	return a.w.Flush()
}

// Flush drains the buffer.
func (a *AuditWriter) Flush() error { return a.w.Flush() }

// maxAuditLine bounds one audit record line; a fingerprint is a few hundred
// bytes.
const maxAuditLine = 4 * 1024 * 1024

// AuditError reports an audit trail ReadAudit rejects: the 1-based line and
// what is wrong with it.
type AuditError struct {
	Line int
	Err  error
}

func (e *AuditError) Error() string { return fmt.Sprintf("audit line %d: %v", e.Line, e.Err) }

func (e *AuditError) Unwrap() error { return e.Err }

// ReadAudit parses a JSONL audit trail: one record object per line, blank
// lines skipped. Any other line — malformed or trailing JSON, a non-object,
// an unknown field, a negative op or vtime, a record without hashes, a line
// longer than 4 MiB — and any read error is an *AuditError.
func ReadAudit(r io.Reader) ([]AuditRecord, error) {
	var recs []AuditRecord
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxAuditLine)
	line := 0
	for sc.Scan() {
		line++
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		rec, err := parseAuditRecord(sc.Bytes())
		if err != nil {
			return nil, &AuditError{Line: line, Err: err}
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, &AuditError{Line: line + 1, Err: err}
	}
	return recs, nil
}

// parseAuditRecord decodes and checks one record line.
func parseAuditRecord(b []byte) (AuditRecord, error) {
	var rec AuditRecord
	if b = bytes.TrimSpace(b); b[0] != '{' {
		return rec, errors.New("not a JSON object")
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil {
		return rec, err
	}
	if dec.InputOffset() != int64(len(b)) {
		return rec, errors.New("trailing data after the record")
	}
	switch {
	case rec.Op < 0 || rec.VTime < 0:
		return rec, fmt.Errorf("negative op %d or vtime %d", rec.Op, rec.VTime)
	case rec.Hashes == nil:
		return rec, errors.New("record has no hashes")
	}
	return rec, nil
}

// Divergence locates the first difference between two audit trails.
type Divergence struct {
	// Index is the 0-based record index of the first difference; for trails
	// that agree on their common prefix it is the shorter trail's length.
	Index int
	// Op and VTime describe the diverging boundary in trail A (or B when A
	// is the shorter trail at a length divergence).
	Op    int64
	VTime int64
	// Sections lists the subsystems whose hashes differ at Index, sorted;
	// empty for a pure length divergence.
	Sections []string
	// LenA and LenB are the trail lengths.
	LenA, LenB int
}

func (d *Divergence) String() string {
	if d == nil {
		return "audit trails identical"
	}
	if len(d.Sections) == 0 {
		return fmt.Sprintf("trails agree for %d checkpoints, then lengths differ (%d vs %d)", d.Index, d.LenA, d.LenB)
	}
	return fmt.Sprintf("first divergence at checkpoint %d (op %d, vtime %dns): sections %v", d.Index, d.Op, d.VTime, d.Sections)
}

// Diverge finds the first record at which two trails differ. It returns nil
// when the trails are identical. The scan is linear: a divergence need not
// persist (a transient difference can reconverge), so no record can be
// skipped.
func Diverge(a, b []AuditRecord) *Divergence {
	n := min(len(a), len(b))
	first := 0
	for first < n && recordsEqual(a[first], b[first]) {
		first++
	}
	if first == n {
		if len(a) == len(b) {
			return nil
		}
		d := &Divergence{Index: n, LenA: len(a), LenB: len(b)}
		if n < len(a) {
			d.Op, d.VTime = a[n].Op, a[n].VTime
		} else {
			d.Op, d.VTime = b[n].Op, b[n].VTime
		}
		return d
	}
	d := &Divergence{Index: first, Op: a[first].Op, VTime: a[first].VTime, LenA: len(a), LenB: len(b)}
	seen := map[string]bool{}
	for name, h := range a[first].Hashes {
		if b[first].Hashes[name] != h {
			seen[name] = true
		}
	}
	for name := range b[first].Hashes {
		if _, ok := a[first].Hashes[name]; !ok {
			seen[name] = true
		}
	}
	if a[first].Op != b[first].Op || a[first].VTime != b[first].VTime {
		seen["boundary"] = true
	}
	for name := range seen {
		d.Sections = append(d.Sections, name)
	}
	sort.Strings(d.Sections)
	return d
}

func recordsEqual(a, b AuditRecord) bool {
	if a.Op != b.Op || a.VTime != b.VTime || len(a.Hashes) != len(b.Hashes) {
		return false
	}
	for name, h := range a.Hashes {
		if b.Hashes[name] != h {
			return false
		}
	}
	return true
}
