// Package tracereplay records application access streams from a simulated
// machine and replays them — against any tiering policy, at original or
// maximum speed. Trace-driven evaluation complements the execution-driven
// workloads: a captured production-like trace can be re-run under every
// policy with identical access sequences, removing workload nondeterminism
// from comparisons.
//
// The format is a compact binary stream (little-endian):
//
//	magic "MCTR" | version u8 | record*
//	record: spaceID varint | vpn varint | flags u8 | dtNanos varint
//
// where dtNanos is the virtual time elapsed since the previous record and
// flags bit0 is write. Records are delta-encoded so steady workloads
// compress to a few bytes per access. A record must name a space that fits
// an int32 and a VPN below 2²² (Replay maps one 2²²-page VMA per space), set
// no flag bit but bit0, and keep the trace's running time below 2⁶² ns;
// the Reader rejects any other record with a *FormatError.
package tracereplay

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"multiclock/internal/machine"
	"multiclock/internal/mem"
	"multiclock/internal/pagetable"
	"multiclock/internal/sim"
)

var magic = [4]byte{'M', 'C', 'T', 'R'}

const version = 1

const (
	// spacePages is the size of the VMA Replay maps for each trace space.
	spacePages = 1 << 22
	// maxElapsed bounds a trace's running time, the sum of its gaps. It
	// keeps every gap a non-negative sim.Duration and leaves a Timed replay's
	// deadline (start plus running time) room for the replay's own
	// latencies before sim.Time would wrap.
	maxElapsed = 1 << 62
)

// FormatError reports a record that decodes but that no replay can execute:
// a space ID that does not fit an int32, a VPN past the replay VMA, a flag
// bit other than write, or a gap that takes the running time to 2⁶² ns.
type FormatError struct {
	// Record is the zero-based index of the record in the stream.
	Record int64
	// Field is "space", "vpn", "flags" or "gap".
	Field string
	Value uint64
}

func (e *FormatError) Error() string {
	return fmt.Sprintf("tracereplay: record %d: %s %#x out of range", e.Record, e.Field, e.Value)
}

// Record is one trace event.
type Record struct {
	Space int32
	VPN   pagetable.VPN
	Write bool
	// Gap is the virtual time since the previous event.
	Gap sim.Duration
}

// Recorder is a machine.Observer that streams every application access to
// an io.Writer.
type Recorder struct {
	w    *bufio.Writer
	last sim.Time
	n    int64
	err  error
}

// NewRecorder writes a trace header and returns the observer.
func NewRecorder(w io.Writer) (*Recorder, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return nil, err
	}
	if err := bw.WriteByte(version); err != nil {
		return nil, err
	}
	return &Recorder{w: bw}, nil
}

// OnAccess implements machine.Observer.
func (r *Recorder) OnAccess(pg *mem.Page, write bool, now sim.Time) {
	if r.err != nil {
		return
	}
	var buf [3*binary.MaxVarintLen64 + 1]byte
	n := binary.PutUvarint(buf[:], uint64(pg.Space))
	n += binary.PutUvarint(buf[n:], uint64(pagetable.VPNOf(pg.VA)))
	flags := byte(0)
	if write {
		flags = 1
	}
	buf[n] = flags
	n++
	n += binary.PutUvarint(buf[n:], uint64(now-r.last))
	r.last = now
	if _, err := r.w.Write(buf[:n]); err != nil {
		r.err = err
		return
	}
	r.n++
}

// OnMigrate implements machine.Observer.
func (r *Recorder) OnMigrate(pg *mem.Page, from, to mem.NodeID, now sim.Time) {}

// OnFault implements machine.Observer.
func (r *Recorder) OnFault(pg *mem.Page, hint bool, now sim.Time) {}

// Records reports how many events were captured.
func (r *Recorder) Records() int64 { return r.n }

// Close flushes the stream and reports any deferred write error.
func (r *Recorder) Close() error {
	if r.err != nil {
		return r.err
	}
	return r.w.Flush()
}

// Reader iterates a trace stream.
type Reader struct {
	br *bufio.Reader
	// n counts the records returned so far; elapsed sums their gaps.
	n       int64
	elapsed uint64
}

// NewReader validates the header.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var hdr [5]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("tracereplay: short header: %w", err)
	}
	if [4]byte{hdr[0], hdr[1], hdr[2], hdr[3]} != magic {
		return nil, errors.New("tracereplay: bad magic")
	}
	if hdr[4] != version {
		return nil, fmt.Errorf("tracereplay: unsupported version %d", hdr[4])
	}
	return &Reader{br: br}, nil
}

// Next returns the next record, or io.EOF.
func (t *Reader) Next() (Record, error) {
	space, err := binary.ReadUvarint(t.br)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return Record{}, io.EOF
		}
		return Record{}, err
	}
	vpn, err := binary.ReadUvarint(t.br)
	if err != nil {
		return Record{}, truncated(err)
	}
	flags, err := t.br.ReadByte()
	if err != nil {
		return Record{}, truncated(err)
	}
	gap, err := binary.ReadUvarint(t.br)
	if err != nil {
		return Record{}, truncated(err)
	}
	bad := func(field string, v uint64) (Record, error) {
		return Record{}, &FormatError{Record: t.n, Field: field, Value: v}
	}
	switch {
	case space > math.MaxInt32:
		return bad("space", space)
	case vpn >= spacePages:
		return bad("vpn", vpn)
	case flags&^1 != 0:
		return bad("flags", uint64(flags))
	case gap >= maxElapsed-t.elapsed:
		return bad("gap", gap)
	}
	t.n++
	t.elapsed += gap
	return Record{
		Space: int32(space),
		VPN:   pagetable.VPN(vpn),
		Write: flags&1 != 0,
		Gap:   sim.Duration(gap),
	}, nil
}

// truncated normalizes mid-record EOFs so callers can distinguish a clean
// end of stream from a cut-off record.
func truncated(err error) error {
	if errors.Is(err, io.EOF) {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("tracereplay: truncated record: %w", err)
}

// Mode selects replay pacing.
type Mode int

const (
	// Timed reproduces the original inter-access gaps: between accesses
	// the replayer idles the machine, letting daemons fire on the
	// original cadence.
	Timed Mode = iota
	// Fast replays back-to-back (only access latencies advance time).
	Fast
)

// Result summarizes a replay.
type Result struct {
	Records int64
	Elapsed sim.Duration
}

// Replay re-executes a trace on the machine. Address spaces are created on
// demand (trace space IDs are mapped to fresh spaces), each with one
// 2²²-page VMA that the trace's VPNs index.
func Replay(m *machine.Machine, r io.Reader, mode Mode) (Result, error) {
	tr, err := NewReader(r)
	if err != nil {
		return Result{}, err
	}
	type spaceState struct {
		as *pagetable.AddressSpace
		// base maps trace VPNs into the replay VMA.
		base pagetable.VPN
	}
	spaces := map[int32]*spaceState{}
	start := m.Clock.Now()
	deadline := start
	var n int64
	for {
		rec, err := tr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return Result{}, err
		}
		st, ok := spaces[rec.Space]
		if !ok {
			as := m.NewSpace()
			// One generous VMA per space: trace VPNs are offsets into it.
			vma := as.Mmap(spacePages, false, fmt.Sprintf("replay-%d", rec.Space))
			st = &spaceState{as: as, base: vma.Start}
			spaces[rec.Space] = st
		}
		if mode == Timed {
			// Pace to the original arrival process: the k-th access
			// starts no earlier than its original relative time, even if
			// the replay policy serves accesses faster.
			deadline += sim.Time(rec.Gap)
			if m.Clock.Now() < deadline {
				m.Compute(sim.Duration(deadline - m.Clock.Now()))
			}
		}
		m.Access(st.as, st.base+rec.VPN, rec.Write)
		n++
	}
	return Result{Records: n, Elapsed: sim.Duration(m.Clock.Now() - start)}, nil
}
