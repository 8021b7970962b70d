package ycsb

import (
	"fmt"
	"math"

	"multiclock/internal/sim"
	"multiclock/internal/snapcodec"
)

// Checkpoint serialization for the client and an in-flight run. The client's
// configuration is supplied by the restore target's construction; only the
// mutable state travels. Choosers are encoded type-tagged with their exact
// float state (math.Float64bits) — the zipfian's zetan/eta are accumulated
// incrementally under Grow, so recomputing them from the item count would not
// reproduce the same bits. What a zipfian derives from that state (its
// branch constant, the inverse table and the draw count that triggers it) is
// rebuilt on the restored side and never written.

const (
	chooserUniform   = 0
	chooserScrambled = 1
	chooserLatest    = 2
	chooserZipfian   = 3
)

// SnapshotState encodes the client's mutable state.
func (c *Client) SnapshotState(enc *snapcodec.Encoder) {
	st := c.rng.State()
	for _, w := range st {
		enc.U64(w)
	}
	enc.I64(c.records)
	enc.Bool(c.loaded)
}

// RestoreState decodes into a freshly constructed client of identical
// configuration.
func (c *Client) RestoreState(dec *snapcodec.Decoder) error {
	var st [4]uint64
	for i := range st {
		st[i] = dec.U64()
	}
	if dec.Err() != nil {
		return dec.Err()
	}
	c.rng.SetState(st)
	c.records = dec.I64()
	c.loaded = dec.Bool()
	return dec.Err()
}

// SnapshotState encodes an in-flight run at an operation boundary.
func (r *Run) SnapshotState(enc *snapcodec.Encoder) error {
	enc.String(r.w.Name)
	enc.I64(r.ops)
	enc.I64(r.done)
	enc.I64(r.startOps)
	enc.I64(int64(r.start))
	enc.Bool(r.unsupported)
	r.lat.SnapshotState(enc)
	return encodeChooser(enc, r.chooser)
}

// RestoreRun decodes an in-flight run bound to this client. The client must
// already be restored (the run's chooser state is independent, but Step reads
// c.records and c.rng).
func (c *Client) RestoreRun(dec *snapcodec.Decoder) (*Run, error) {
	name := dec.String()
	if dec.Err() != nil {
		return nil, dec.Err()
	}
	w, err := ByName(name)
	if err != nil {
		return nil, err
	}
	r := &Run{c: c, w: w}
	r.ops = dec.I64()
	r.done = dec.I64()
	r.startOps = dec.I64()
	r.start = sim.Time(dec.I64())
	r.unsupported = dec.Bool()
	if err := r.lat.RestoreState(dec); err != nil {
		return nil, err
	}
	if r.chooser, err = decodeChooser(dec); err != nil {
		return nil, err
	}
	if r.done < 0 || r.done > r.ops {
		return nil, fmt.Errorf("ycsb: snapshot run completed %d of %d ops", r.done, r.ops)
	}
	return r, dec.Err()
}

func encodeChooser(enc *snapcodec.Encoder, ch Chooser) error {
	switch v := ch.(type) {
	case *Uniform:
		enc.U8(chooserUniform)
		enc.I64(v.n)
	case *Scrambled:
		enc.U8(chooserScrambled)
		enc.I64(v.n)
		encodeZipfian(enc, v.z)
	case *Latest:
		enc.U8(chooserLatest)
		enc.I64(v.n)
		encodeZipfian(enc, v.z)
	case *Zipfian:
		enc.U8(chooserZipfian)
		encodeZipfian(enc, v)
	default:
		return fmt.Errorf("ycsb: chooser %T is not serializable", ch)
	}
	return nil
}

func decodeChooser(dec *snapcodec.Decoder) (Chooser, error) {
	tag := dec.U8()
	if dec.Err() != nil {
		return nil, dec.Err()
	}
	switch tag {
	case chooserUniform:
		return &Uniform{n: dec.I64()}, dec.Err()
	case chooserScrambled:
		s := &Scrambled{n: dec.I64()}
		var err error
		if s.z, err = decodeZipfian(dec); err != nil {
			return nil, err
		}
		return s, nil
	case chooserLatest:
		l := &Latest{n: dec.I64()}
		var err error
		if l.z, err = decodeZipfian(dec); err != nil {
			return nil, err
		}
		return l, nil
	case chooserZipfian:
		return decodeZipfian(dec)
	default:
		return nil, fmt.Errorf("ycsb: unknown chooser tag %d", tag)
	}
}

func encodeZipfian(enc *snapcodec.Encoder, z *Zipfian) {
	enc.I64(z.items)
	enc.I64(z.countForZeta)
	for _, f := range []float64{z.theta, z.alpha, z.zetan, z.eta, z.zeta2t} {
		enc.U64(math.Float64bits(f))
	}
}

func decodeZipfian(dec *snapcodec.Decoder) (*Zipfian, error) {
	z := &Zipfian{}
	z.items = dec.I64()
	z.countForZeta = dec.I64()
	z.theta = math.Float64frombits(dec.U64())
	z.alpha = math.Float64frombits(dec.U64())
	z.zetan = math.Float64frombits(dec.U64())
	z.eta = math.Float64frombits(dec.U64())
	z.zeta2t = math.Float64frombits(dec.U64())
	if dec.Err() != nil {
		return nil, dec.Err()
	}
	if z.items <= 0 {
		return nil, fmt.Errorf("ycsb: snapshot zipfian over %d items", z.items)
	}
	z.second = 1 + pow(0.5, z.theta)
	return z, nil
}
