// Package snapcodec is the deterministic binary encoding the checkpoint
// layer serializes simulator state with. It is a dependency-free leaf so
// every subsystem package (mem, lru, machine, policy, fault, ...) can
// describe its own checkpoint state without import cycles.
//
// The format is deliberately primitive: fixed-width little-endian integers
// and length-prefixed byte strings, no varints, no framing. Equal state
// always encodes to equal bytes — section payloads double as the divergence
// auditor's hash input — and the decoder is sticky-error so restore code
// reads linearly and checks once at the end.
//
// A component describes its state once, as a walk over its fields through a
// Codec: writing, each call encodes the value behind a pointer; reading, it
// decodes into it. Encoding and decoding therefore cannot drift apart.
package snapcodec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrTruncated reports a read past the end of the payload.
var ErrTruncated = errors.New("snapcodec: truncated payload")

// Encoder appends fixed-width values to a growing buffer.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Bytes returns the encoded payload. The slice aliases the encoder's
// buffer; callers must not keep encoding afterwards.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of bytes encoded so far.
func (e *Encoder) Len() int { return len(e.buf) }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U32 appends a little-endian uint32.
func (e *Encoder) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U64 appends a little-endian uint64.
func (e *Encoder) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// I64 appends a little-endian int64 (two's complement).
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Int appends an int as an int64.
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// String appends a length-prefixed UTF-8 string.
func (e *Encoder) String(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Raw appends a length-prefixed byte string.
func (e *Encoder) Raw(b []byte) {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// Decoder reads fixed-width values from a payload. The first failed read
// latches an error; every later read returns zero values, so restore code
// can decode a whole section and check Err once.
type Decoder struct {
	b   []byte
	off int
	err error
}

// NewDecoder reads from b.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Err returns the first decode error, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.b) - d.off }

// Finish returns an error unless the payload was consumed exactly.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("snapcodec: %d trailing bytes", len(d.b)-d.off)
	}
	return nil
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.b)-d.off < n {
		d.err = ErrTruncated
		return nil
	}
	b := d.b[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a boolean byte; any value other than 0 or 1 is an error.
func (d *Decoder) Bool() bool {
	switch d.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		if d.err == nil {
			d.err = errors.New("snapcodec: invalid boolean")
		}
		return false
	}
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a little-endian int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Int reads an int64 into an int.
func (d *Decoder) Int() int { return int(d.I64()) }

// String reads a length-prefixed string.
func (d *Decoder) String() string { return string(d.bytes()) }

// Raw reads a length-prefixed byte string (copied, safe to retain).
func (d *Decoder) Raw() []byte { return append([]byte(nil), d.bytes()...) }

func (d *Decoder) bytes() []byte {
	n := int(d.U32())
	if d.err != nil {
		return nil
	}
	return d.take(n)
}

// Codec is one direction of a checkpoint: a writer over an Encoder or a
// reader over a Decoder. A component's Checkpoint method walks its fields
// once through the Codec. Checks on the values it read compare them with the
// component's own state, so when writing they hold trivially; only state a
// reader has to construct (lists, maps, tables) branches on Reading.
type Codec struct {
	enc *Encoder
	dec *Decoder
}

// NewWriter returns a codec that encodes into an empty payload.
func NewWriter() *Codec { return &Codec{enc: NewEncoder()} }

// NewReader returns a codec that decodes payload.
func NewReader(payload []byte) *Codec { return &Codec{dec: NewDecoder(payload)} }

// Reading reports whether the codec decodes.
func (c *Codec) Reading() bool { return c.dec != nil }

// Bytes returns the written payload (nil when reading).
func (c *Codec) Bytes() []byte {
	if c.enc == nil {
		return nil
	}
	return c.enc.Bytes()
}

// Err returns the first decode error; a writer never fails.
func (c *Codec) Err() error {
	if c.dec == nil {
		return nil
	}
	return c.dec.Err()
}

// Finish returns an error unless a reader consumed its payload exactly.
func (c *Codec) Finish() error {
	if c.dec == nil {
		return nil
	}
	return c.dec.Finish()
}

// Remaining returns the unread payload bytes, so a reader can bound a
// decoded count before allocating for it. A writer has no bound: it
// returns math.MaxInt.
func (c *Codec) Remaining() int {
	if c.dec == nil {
		return math.MaxInt
	}
	return c.dec.Remaining()
}

// Bool codes a boolean as one byte.
func (c *Codec) Bool(p *bool) {
	if c.dec != nil {
		*p = c.dec.Bool()
	} else {
		c.enc.Bool(*p)
	}
}

// String codes a length-prefixed string.
func (c *Codec) String(p *string) {
	if c.dec != nil {
		*p = c.dec.String()
	} else {
		c.enc.String(*p)
	}
}

// Integer is every integer type a field can have; the functions below code
// it at a fixed wire width, converting as a Go conversion does.
type Integer interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 | ~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64
}

// U8 codes an integer as one byte.
func U8[T Integer](c *Codec, p *T) {
	if c.dec != nil {
		*p = T(c.dec.U8())
	} else {
		c.enc.U8(uint8(*p))
	}
}

// U32 codes an integer as a little-endian uint32.
func U32[T Integer](c *Codec, p *T) {
	if c.dec != nil {
		*p = T(c.dec.U32())
	} else {
		c.enc.U32(uint32(*p))
	}
}

// U64 codes an integer as a little-endian uint64.
func U64[T Integer](c *Codec, p *T) {
	if c.dec != nil {
		*p = T(c.dec.U64())
	} else {
		c.enc.U64(uint64(*p))
	}
}

// I64 codes an integer as a little-endian int64.
func I64[T Integer](c *Codec, p *T) {
	if c.dec != nil {
		*p = T(c.dec.I64())
	} else {
		c.enc.I64(int64(*p))
	}
}

// F64 codes a float by its exact bits.
func F64[T ~float64](c *Codec, p *T) {
	if c.dec != nil {
		*p = T(math.Float64frombits(c.dec.U64()))
	} else {
		c.enc.U64(math.Float64bits(float64(*p)))
	}
}

// Entries codes a count and then that many map entries, each through entry,
// which codes the key behind its argument and then the key's value. Writing,
// the entries are keys, in their order (sorted, so equal maps encode
// equally); reading, each starts from a zero key. An error from entry stops
// the walk.
func Entries[K any](c *Codec, keys []K, entry func(k *K) error) error {
	n := len(keys)
	I64(c, &n)
	for i := 0; i < n && c.Err() == nil; i++ {
		var k K
		if c.dec == nil {
			k = keys[i]
		}
		if err := entry(&k); err != nil {
			return err
		}
	}
	return c.Err()
}
