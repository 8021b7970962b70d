package snapcodec

import (
	"errors"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	e := NewEncoder()
	e.U8(7)
	e.Bool(true)
	e.Bool(false)
	e.U32(0xdeadbeef)
	e.U64(1 << 60)
	e.I64(-42)
	e.Int(1234)
	e.String("kpromoted")
	e.Raw([]byte{1, 2, 3})
	e.String("")

	d := NewDecoder(e.Bytes())
	if got := d.U8(); got != 7 {
		t.Fatalf("U8 = %d", got)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("Bool round trip")
	}
	if got := d.U32(); got != 0xdeadbeef {
		t.Fatalf("U32 = %#x", got)
	}
	if got := d.U64(); got != 1<<60 {
		t.Fatalf("U64 = %d", got)
	}
	if got := d.I64(); got != -42 {
		t.Fatalf("I64 = %d", got)
	}
	if got := d.Int(); got != 1234 {
		t.Fatalf("Int = %d", got)
	}
	if got := d.String(); got != "kpromoted" {
		t.Fatalf("String = %q", got)
	}
	if got := d.Raw(); len(got) != 3 || got[2] != 3 {
		t.Fatalf("Raw = %v", got)
	}
	if got := d.String(); got != "" {
		t.Fatalf("empty String = %q", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestDeterministic(t *testing.T) {
	enc := func() []byte {
		e := NewEncoder()
		e.U64(99)
		e.String("x")
		return e.Bytes()
	}
	a, b := enc(), enc()
	if string(a) != string(b) {
		t.Fatal("equal state encoded to different bytes")
	}
}

func TestTruncation(t *testing.T) {
	e := NewEncoder()
	e.U64(5)
	e.String("hello")
	full := e.Bytes()
	for cut := 0; cut < len(full); cut++ {
		d := NewDecoder(full[:cut])
		d.U64()
		_ = d.String()
		if err := d.Finish(); !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut=%d: Finish = %v, want ErrTruncated", cut, err)
		}
		// Sticky: reads after the error stay zero and do not panic.
		if d.U64() != 0 || d.String() != "" {
			t.Fatalf("cut=%d: reads after error not zero", cut)
		}
	}
}

func TestTrailingBytes(t *testing.T) {
	e := NewEncoder()
	e.U8(1)
	e.U8(2)
	d := NewDecoder(e.Bytes())
	d.U8()
	if err := d.Finish(); err == nil {
		t.Fatal("Finish accepted trailing bytes")
	}
}

func TestInvalidBool(t *testing.T) {
	d := NewDecoder([]byte{9})
	d.Bool()
	if d.Err() == nil {
		t.Fatal("Bool accepted byte 9")
	}
}

// record is a component with a field of every width the codec has.
type record struct {
	flag  bool
	name  string
	small uint16 // coded as U8
	node  int32  // coded as U32, negative
	seq   uint64
	at    int64
	f     float64
	keys  map[string]int
}

func (r *record) checkpoint(c *Codec) error {
	c.Bool(&r.flag)
	c.String(&r.name)
	U8(c, &r.small)
	U32(c, &r.node)
	U64(c, &r.seq)
	I64(c, &r.at)
	F64(c, &r.f)
	return Entries(c, []string{"a", "b"}, func(k *string) error {
		c.String(k)
		v := r.keys[*k]
		I64(c, &v)
		if c.Reading() {
			r.keys[*k] = v
		}
		return nil
	})
}

// TestCodecOneWalk writes a record through one walk and reads it back
// through the same walk: the writer encodes what the reader decodes, field
// for field, with each field's wire width and conversion.
func TestCodecOneWalk(t *testing.T) {
	in := record{true, "kswapd", 200, -1, 1 << 60, -42, -0.1, map[string]int{"a": 1, "b": -2}}
	w := NewWriter()
	if w.Reading() || w.Remaining() <= 1<<40 || w.Err() != nil || w.Finish() != nil {
		t.Fatal("a writer reads, bounds counts or fails")
	}
	if err := in.checkpoint(w); err != nil {
		t.Fatal(err)
	}
	if want := 1 + 4 + 6 + 1 + 4 + 8 + 8 + 8 + 8 + 2*(4+1+8); len(w.Bytes()) != want {
		t.Fatalf("wrote %d bytes, want %d", len(w.Bytes()), want)
	}
	out := record{keys: map[string]int{}}
	r := NewReader(w.Bytes())
	if err := out.checkpoint(r); err != nil {
		t.Fatal(err)
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	if out.flag != in.flag || out.name != in.name || out.small != in.small || out.node != in.node ||
		out.seq != in.seq || out.at != in.at || out.f != in.f || len(out.keys) != 2 || out.keys["b"] != -2 {
		t.Fatalf("read %+v, wrote %+v", out, in)
	}
	if r := NewReader(w.Bytes()[:10]); out.checkpoint(r) == nil || !errors.Is(r.Err(), ErrTruncated) {
		t.Fatal("a truncated payload read without error")
	}
}
