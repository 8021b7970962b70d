package ycsb

import (
	"fmt"

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

// Checkpoint codes the client's mutable state; reading, the client is
// freshly constructed with the same configuration. Writing, a run in flight
// is settled first, so the RNG written is the one at its op boundary;
// reading, the client forgets its run.
func (c *Client) Checkpoint(sc *snapcodec.Codec) error {
	if sc.Reading() {
		c.run = nil
	} else if c.run != nil {
		c.run.settle()
	}
	c.rng.Checkpoint(sc)
	snapcodec.I64(sc, &c.records)
	sc.Bool(&c.loaded)
	return sc.Err()
}

// Checkpoint codes an in-flight run at an operation boundary. Reading, r is
// a zero run bound to its client; RestoreRun makes one.
func (r *Run) Checkpoint(c *snapcodec.Codec) error {
	r.settle()
	name := r.w.Name
	c.String(&name)
	if c.Err() != nil {
		return c.Err()
	}
	if c.Reading() {
		w, err := ByName(name)
		if err != nil {
			return err
		}
		r.w = w
	}
	snapcodec.I64(c, &r.ops)
	snapcodec.I64(c, &r.done)
	snapcodec.I64(c, &r.startOps)
	snapcodec.I64(c, &r.start)
	c.Bool(&r.unsupported)
	if err := r.lat.Checkpoint(c); err != nil {
		return err
	}
	if err := r.c.checkpointChooser(c, &r.chooser); err != nil {
		return err
	}
	if r.done < 0 || r.done > r.ops {
		return fmt.Errorf("ycsb: snapshot run completed %d of %d ops", r.done, r.ops)
	}
	return c.Err()
}

// RestoreRun reads an in-flight run bound to this client. The client must
// already be restored: Step reads c.records and c.rng, and the chooser's key
// space must lie within c.records.
func (c *Client) RestoreRun(sc *snapcodec.Codec) (*Run, error) {
	r := &Run{c: c}
	if err := r.Checkpoint(sc); err != nil {
		return nil, err
	}
	c.run = r
	return r, nil
}

// checkpointChooser codes a run's chooser, type-tagged; Scrambled and Latest
// code their record count ahead of the zipfian. Reading, it builds the
// chooser on c's tables: the zipfian's floats keep the snapshot's bits and
// are only checked to lie where a zipfian's can, and a state no chooser of c
// could be in is a *ChooserError.
func (c *Client) checkpointChooser(sc *snapcodec.Codec, ch *Chooser) error {
	var tag uint8
	var n int64
	var z *Zipfian
	switch v := (*ch).(type) {
	case nil: // reading
	case *Uniform:
		tag, n = chooserUniform, v.n
	case *Scrambled:
		tag, n, z = chooserScrambled, v.z.items, v.z
	case *Latest:
		tag, n, z = chooserLatest, v.z.items, v.z
	case *Zipfian:
		tag, z = chooserZipfian, v
	default:
		return fmt.Errorf("ycsb: chooser %T is not serializable", v)
	}
	snapcodec.U8(sc, &tag)
	if sc.Err() != nil {
		return sc.Err()
	}
	if tag > chooserZipfian {
		return &ChooserError{"unknown", fmt.Sprintf("tag %d", tag)}
	}
	if tag != chooserZipfian {
		snapcodec.I64(sc, &n)
	}
	if tag == chooserUniform {
		if sc.Err() != nil {
			return sc.Err()
		}
		if n < 1 || n > c.records {
			return &ChooserError{"uniform", fmt.Sprintf("%d records outside the client's [1, %d]", n, c.records)}
		}
		if sc.Reading() {
			*ch = &Uniform{n: n}
		}
		return nil
	}
	if sc.Reading() {
		z = &Zipfian{tables: &c.tables}
	}
	z.checkpoint(sc)
	if sc.Err() != nil {
		return sc.Err()
	}
	if reason := z.impossible(c.records); reason != "" {
		return &ChooserError{"zipfian", reason}
	}
	kind, built := "zipfian", Chooser(z)
	switch tag {
	case chooserScrambled:
		kind, built = "scrambled", &Scrambled{z: z}
	case chooserLatest:
		kind, built = "latest", &Latest{z: z}
	}
	if tag != chooserZipfian && n != z.items {
		return &ChooserError{kind, fmt.Sprintf("%d records over %d zipfian items", n, z.items)}
	}
	if sc.Reading() {
		z.second = 1 + pow(0.5, z.theta)
		*ch = built
	}
	return nil
}

// checkpoint codes the zipfian's item count and exact float state; what it
// derives from them is rebuilt on the restored side.
func (z *Zipfian) checkpoint(c *snapcodec.Codec) {
	snapcodec.I64(c, &z.items)
	snapcodec.I64(c, &z.countForZeta)
	for _, f := range []*float64{&z.theta, &z.alpha, &z.zetan, &z.eta, &z.zeta2t} {
		snapcodec.F64(c, f)
	}
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
