// Package snapshot implements deterministic checkpoint/restore for a whole
// simulated system: a versioned, checksummed container of named sections,
// each the canonical snapcodec encoding of one subsystem's state at a
// quiescent boundary. Equal state encodes to equal bytes, so the per-section
// checksums double as the divergence auditor's subsystem hashes.
//
// The quiescence contract: a snapshot may only be taken between application
// operations, when the only events pending on the virtual clock are the armed
// daemons' next wakeups (Clock.NonDaemonPending() == 0). One-shot Schedule
// closures — time-series samplers, lifecycle hooks — cannot be serialized, so
// harnesses refuse to combine those features with checkpointing.
//
// Restore never patches a live system. The caller reconstructs the target
// pristine — same configuration, same construction order — and Restore then
// overwrites the mutable state, rebuilding pointer identity through a
// Page.Seq registry, verifies the geometry it does not replay, and runs the
// machine's invariant checker before handing the system back.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"os"

	"multiclock/internal/snapcodec"
)

// Magic identifies a snapshot file.
const Magic = "MCSNAP"

// Version is the container format version. Version 2 prefixed the mem
// section with the tier-topology header (and versioned the soak config for
// the tier spec), so version-1 containers no longer decode. Version 3 writes
// a run's latency histogram as (value, count) pairs instead of one word per
// sample; the sections are otherwise unchanged, so the version is what stops
// a version-2 container from being mis-decoded. Version 4 shrinks the page
// record with the one-line descriptor: AMP's profiles and AutoTiering's hint
// times moved into those policies' sections, PromotedAt is gone, a shadow
// location is written only for a page with FlagShadow, and the mem section
// no longer counts shadow frames. Version 5 drops one always-zero word from
// the multiclock policy sections: the shortest interval of the adaptive
// scan-interval extension, which no run enabled and which is gone.
const Version = 5

// Section names in container order.
const (
	SecConfig   = "config"
	SecClock    = "clock"
	SecMem      = "mem"
	SecLRU      = "lru"
	SecMachine  = "machine"
	SecFault    = "fault"
	SecPolicy   = "policy"
	SecStore    = "store"
	SecWorkload = "workload"
	SecMetrics  = "metrics"
)

// SectionOrder is the canonical section sequence of a capture.
var SectionOrder = []string{
	SecConfig, SecClock, SecMem, SecLRU, SecMachine,
	SecFault, SecPolicy, SecStore, SecWorkload, SecMetrics,
}

// ErrBadMagic reports a file that is not a snapshot at all.
var ErrBadMagic = errors.New("snapshot: bad magic (not a snapshot file)")

// ErrTruncatedFile reports a container cut short.
var ErrTruncatedFile = errors.New("snapshot: truncated file")

// VersionError reports a container written by an incompatible format version.
type VersionError struct {
	Got, Want uint32
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("snapshot: format version %d (this build reads version %d)", e.Got, e.Want)
}

// CorruptError reports a section whose payload failed its checksum or did not
// decode cleanly. Section "file" means the whole-file checksum failed.
type CorruptError struct {
	Section string
	Err     error
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("snapshot: section %q corrupt: %v", e.Section, e.Err)
}

func (e *CorruptError) Unwrap() error { return e.Err }

// ConfigMismatchError reports a snapshot taken under a different
// configuration than the restore target was built with.
type ConfigMismatchError struct {
	Reason string
}

func (e *ConfigMismatchError) Error() string {
	return "snapshot: configuration mismatch: " + e.Reason
}

// NotQuiescentError reports a capture attempted while non-daemon events were
// pending on the virtual clock.
type NotQuiescentError struct {
	Pending int
}

func (e *NotQuiescentError) Error() string {
	return fmt.Sprintf("snapshot: clock not quiescent (%d non-daemon events pending)", e.Pending)
}

// File is a parsed (or under-construction) snapshot container.
type File struct {
	Version  uint32
	order    []string
	sections map[string][]byte
	hashes   map[string]uint64
}

// NewFile returns an empty container at the current version.
func NewFile() *File {
	return &File{
		Version:  Version,
		sections: make(map[string][]byte),
		hashes:   make(map[string]uint64),
	}
}

// AddSection appends one named payload.
func (f *File) AddSection(name string, payload []byte) {
	if _, dup := f.sections[name]; dup {
		panic("snapshot: duplicate section " + name)
	}
	f.order = append(f.order, name)
	f.sections[name] = payload
	f.hashes[name] = fnvSum(payload)
}

// Section returns a named payload.
func (f *File) Section(name string) ([]byte, bool) {
	p, ok := f.sections[name]
	return p, ok
}

// Hash returns a section's fnv-1a checksum (the auditor's subsystem hash).
func (f *File) Hash(name string) uint64 { return f.hashes[name] }

// Sections returns the section names in container order.
func (f *File) Sections() []string { return f.order }

// Encode renders the container:
//
//	"MCSNAP" | u32 version | u32 nsections
//	  per section: string name | raw payload | u64 fnv-1a(payload)
//	u64 fnv-1a(everything above)
func (f *File) Encode() []byte {
	enc := snapcodec.NewEncoder()
	enc.U32(f.Version)
	enc.U32(uint32(len(f.order)))
	for _, name := range f.order {
		enc.String(name)
		enc.Raw(f.sections[name])
		enc.U64(f.hashes[name])
	}
	buf := append([]byte(Magic), enc.Bytes()...)
	return binary.LittleEndian.AppendUint64(buf, fnvSum(buf))
}

// WriteFile encodes and writes the container atomically (temp file in the
// same directory, then rename), so a process killed mid-checkpoint leaves
// the previous snapshot intact rather than a truncated file.
func (f *File) WriteFile(path string) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, f.Encode(), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// Decode parses and verifies a container. Every checksum is checked here, so
// a File that decodes is internally consistent; section payloads may still
// fail semantic validation during Restore.
func Decode(data []byte) (*File, error) {
	if len(data) < len(Magic)+8 {
		return nil, ErrTruncatedFile
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, ErrBadMagic
	}
	body, tail := data[:len(data)-8], data[len(data)-8:]
	if binary.LittleEndian.Uint64(tail) != fnvSum(body) {
		return nil, &CorruptError{Section: "file", Err: errors.New("whole-file checksum mismatch")}
	}
	dec := snapcodec.NewDecoder(body[len(Magic):])
	version := dec.U32()
	n := dec.U32()
	if dec.Err() != nil {
		return nil, ErrTruncatedFile
	}
	if version != Version {
		return nil, &VersionError{Got: version, Want: Version}
	}
	f := NewFile()
	for i := uint32(0); i < n; i++ {
		name := dec.String()
		payload := dec.Raw()
		sum := dec.U64()
		if dec.Err() != nil {
			return nil, ErrTruncatedFile
		}
		if _, dup := f.sections[name]; dup {
			return nil, &CorruptError{Section: name, Err: errors.New("duplicate section")}
		}
		if fnvSum(payload) != sum {
			return nil, &CorruptError{Section: name, Err: errors.New("section checksum mismatch")}
		}
		f.AddSection(name, payload)
	}
	if err := dec.Finish(); err != nil {
		return nil, ErrTruncatedFile
	}
	return f, nil
}

// ReadFile reads and verifies a snapshot file.
func ReadFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// fnvSum is fnv-1a 64 over b.
func fnvSum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}
