package snapshot

import (
	"encoding/binary"
	"errors"
	"testing"
)

// sample builds a container with a few sections in canonical order.
func sample() *File {
	f := NewFile()
	f.AddSection(SecConfig, []byte("cfg-payload"))
	f.AddSection(SecClock, []byte{1, 2, 3, 4})
	f.AddSection(SecMem, nil)
	return f
}

func TestFileRoundTrip(t *testing.T) {
	f := sample()
	g, err := Decode(f.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if g.Version != Version {
		t.Fatalf("version %d, want %d", g.Version, Version)
	}
	want := []string{SecConfig, SecClock, SecMem}
	got := g.Sections()
	if len(got) != len(want) {
		t.Fatalf("sections %v, want %v", got, want)
	}
	for i, name := range want {
		if got[i] != name {
			t.Fatalf("section order %v, want %v", got, want)
		}
		p, ok := g.Section(name)
		q, _ := f.Section(name)
		if !ok || string(p) != string(q) {
			t.Fatalf("section %q payload %q, want %q", name, p, q)
		}
		if g.Hash(name) != f.Hash(name) {
			t.Fatalf("section %q hash mismatch", name)
		}
	}
}

func TestFileBadMagic(t *testing.T) {
	data := sample().Encode()
	data[0] ^= 0xff
	if _, err := Decode(data); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
	if _, err := Decode([]byte("not a snapshot at all, but long enough")); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

// TestFileTruncationAtEveryPrefix: no prefix of a valid container may decode
// successfully, and none may panic — every cut is a typed error.
func TestFileTruncationAtEveryPrefix(t *testing.T) {
	data := sample().Encode()
	for n := 0; n < len(data); n++ {
		_, err := Decode(data[:n])
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded successfully", n, len(data))
		}
		var ce *CorruptError
		if !errors.Is(err, ErrTruncatedFile) && !errors.Is(err, ErrBadMagic) && !errors.As(err, &ce) {
			t.Fatalf("prefix %d: untyped error %v", n, err)
		}
	}
}

// TestFileBitFlips: flipping any single byte must fail the whole-file
// checksum (or a section checksum), never decode cleanly.
func TestFileBitFlips(t *testing.T) {
	orig := sample().Encode()
	for i := 0; i < len(orig); i++ {
		data := append([]byte(nil), orig...)
		data[i] ^= 0x40
		if _, err := Decode(data); err == nil {
			t.Fatalf("byte %d flipped, still decoded", i)
		}
	}
}

func TestFileVersionSkew(t *testing.T) {
	// A future version, and version 3, whose page records are laid out for
	// the two-line descriptor: both must be refused before any section is
	// read.
	for _, v := range []uint32{Version + 7, 3} {
		f := sample()
		f.Version = v
		data := f.Encode()
		_, err := Decode(data)
		var ve *VersionError
		if !errors.As(err, &ve) {
			t.Fatalf("version %d: err = %v, want VersionError", v, err)
		}
		if ve.Got != v || ve.Want != Version {
			t.Fatalf("version %d: VersionError = %+v", v, ve)
		}
	}
}

func TestFileWholeFileChecksum(t *testing.T) {
	data := sample().Encode()
	// Corrupt only the trailing checksum; the body is intact.
	binary.LittleEndian.PutUint64(data[len(data)-8:], 0xdeadbeef)
	_, err := Decode(data)
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Section != "file" {
		t.Fatalf("err = %v, want whole-file CorruptError", err)
	}
}

func TestFileDuplicateSectionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddSection did not panic")
		}
	}()
	f := NewFile()
	f.AddSection(SecMem, nil)
	f.AddSection(SecMem, nil)
}
