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
// rebuilt on the restored side and never written. Scrambled and Latest write
// their record count ahead of the zipfian; it is the zipfian's item count.

const (
	chooserUniform   = 0
	chooserScrambled = 1
	chooserLatest    = 2
	chooserZipfian   = 3
)

// ChooserError reports a snapshot chooser no run could have been in: its
// state would divide by zero, draw keys outside the client's records, or
// make Grow sum zeta over a range it was never summed to.
type ChooserError struct {
	Kind   string // "uniform", "scrambled", "latest" or "zipfian"
	Reason string
}

func (e *ChooserError) Error() string {
	return fmt.Sprintf("ycsb: snapshot %s chooser: %s", e.Kind, e.Reason)
}

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
// already be restored: Step reads c.records and c.rng, and the chooser's key
// space must lie within c.records.
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
	if r.chooser, err = c.decodeChooser(dec); err != nil {
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
		enc.I64(v.z.items)
		encodeZipfian(enc, v.z)
	case *Latest:
		enc.U8(chooserLatest)
		enc.I64(v.z.items)
		encodeZipfian(enc, v.z)
	case *Zipfian:
		enc.U8(chooserZipfian)
		encodeZipfian(enc, v)
	default:
		return fmt.Errorf("ycsb: chooser %T is not serializable", ch)
	}
	return nil
}

// decodeChooser decodes a run's chooser onto c's tables. A state no chooser
// of c could be in is a *ChooserError.
func (c *Client) decodeChooser(dec *snapcodec.Decoder) (Chooser, error) {
	tag := dec.U8()
	if dec.Err() != nil {
		return nil, dec.Err()
	}
	switch tag {
	case chooserUniform:
		n := dec.I64()
		if dec.Err() != nil {
			return nil, dec.Err()
		}
		if n < 1 || n > c.records {
			return nil, &ChooserError{"uniform", fmt.Sprintf("%d records outside the client's [1, %d]", n, c.records)}
		}
		return &Uniform{n: n}, nil
	case chooserScrambled, chooserLatest:
		n := dec.I64()
		z, err := c.decodeZipfian(dec)
		if err != nil {
			return nil, err
		}
		kind, ch := "scrambled", Chooser(&Scrambled{z: z})
		if tag == chooserLatest {
			kind, ch = "latest", &Latest{z: z}
		}
		if n != z.items {
			return nil, &ChooserError{kind, fmt.Sprintf("%d records over %d zipfian items", n, z.items)}
		}
		return ch, nil
	case chooserZipfian:
		return c.decodeZipfian(dec)
	default:
		return nil, &ChooserError{"unknown", fmt.Sprintf("tag %d", tag)}
	}
}

func encodeZipfian(enc *snapcodec.Encoder, z *Zipfian) {
	enc.I64(z.items)
	enc.I64(z.countForZeta)
	for _, f := range []float64{z.theta, z.alpha, z.zetan, z.eta, z.zeta2t} {
		enc.U64(math.Float64bits(f))
	}
}

// decodeZipfian decodes a zipfian onto c's tables. Its floats keep the
// snapshot's bits; they are only checked to lie where a zipfian's can.
func (c *Client) decodeZipfian(dec *snapcodec.Decoder) (*Zipfian, error) {
	z := &Zipfian{tables: &c.tables}
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
	if reason := z.impossible(c.records); reason != "" {
		return nil, &ChooserError{"zipfian", reason}
	}
	z.second = 1 + pow(0.5, z.theta)
	return z, nil
}

// impossible says why no zipfian over at most records items has z's state,
// or returns "". alpha is one exact division, so it must have those bits: a
// table is shared on theta's. The other floats must lie where NewZipfianTheta
// and Grow put them for theta in (0, 1): zeta(n) sums n terms in (0, 1]
// starting with 1, and eta stays in (0, 1] except at two items, where it is
// 0/0 and never read.
func (z *Zipfian) impossible(records int64) string {
	switch {
	case z.items < 1 || z.items > records:
		return fmt.Sprintf("%d items outside the client's [1, %d] records", z.items, records)
	case z.countForZeta != z.items:
		return fmt.Sprintf("zeta summed over %d of %d items", z.countForZeta, z.items)
	case !(z.theta > 0 && z.theta < 1):
		return fmt.Sprintf("theta %v outside (0, 1)", z.theta)
	case z.alpha != 1/(1-z.theta):
		return fmt.Sprintf("alpha %v is not 1/(1-theta)", z.alpha)
	case !(z.zeta2t > 1 && z.zeta2t <= 2):
		return fmt.Sprintf("zeta(2) %v outside (1, 2]", z.zeta2t)
	case !(z.zetan >= 1 && z.zetan <= float64(z.items)):
		return fmt.Sprintf("zetan %v outside [1, %d]", z.zetan, z.items)
	case z.items != 2 && !(z.eta > 0 && z.eta <= 1):
		return fmt.Sprintf("eta %v outside (0, 1]", z.eta)
	}
	return ""
}
