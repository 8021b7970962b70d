package ycsb

import (
	"fmt"

	"multiclock/internal/sim"
)

// The client draws ahead. A run's operations are drawn in chunks by a
// drawer, which holds its own copy of the client's RNG, record count and
// chooser; Step only consumes them. The run's first chunk is drawn in line,
// and while Step consumes one chunk the next is filled on a goroutine of its
// own, which ends when that fill returns. YCSB never lets a store's answer
// steer a draw, so the op stream is the one Step drawing in line would give,
// and only the client's logical position needs re-deriving, at an op
// boundary inside a chunk: settle does that from the chunk's saved start.

// chunkOps is the ops one fill draws: the chunk Step consumes and the one
// filled beside it are 64 KiB between them.
const chunkOps = 4096

// op is one drawn operation: its kind in the top bits and, below, its key or
// an insert's new record number.
type op uint64

type opKind uint8

const (
	opRead opKind = iota
	opUpdate
	opInsert
	opRMW
	opScan
)

const opKeyBits = 61

func mkOp(k opKind, key int64) op { return op(k)<<opKeyBits | op(key) }
func (o op) kind() opKind         { return opKind(o >> opKeyBits) }
func (o op) key() uint64          { return uint64(o) & (1<<opKeyBits - 1) }

// drawer is a run's client side. Only fill advances it, and fill writes
// nothing but the drawer and the chunk it fills, so the drawer is one
// allocation, padded so that no cache line of it holds state Step writes: a
// prototype that kept the drawer's RNG inside Run lost a third of ycsb-a's
// speed to the two cores taking that line from each other.
type drawer struct {
	_       [cacheLine]byte
	w       Workload
	rng     sim.RNG
	records int64
	chooser Chooser // keeps a zipfian in z, counting its draws on tables
	z       Zipfian
	tables  tableCache

	target *chunk        // the chunk the next goroutine fills
	filled chan struct{} // one send per fill on a goroutine
	ahead  func()        // fills target and sends on filled
	_      [cacheLine]byte
}

const cacheLine = 64

// chunk is a stretch of a run's operations and where the drawer stood before
// drawing them.
type chunk struct {
	ops     []op
	rng     sim.RNG
	chooser Chooser // keeps a zipfian in z; it never draws
	z       Zipfian
}

// fill draws len(ch.ops) operations into ch after saving the drawer's RNG
// and chooser as they stand. It is the draw logic Step once ran in line.
func (d *drawer) fill(ch *chunk) {
	ch.rng = d.rng
	copyChooser(ch.chooser, d.chooser)
	w := &d.w
	for i := range ch.ops {
		p := d.rng.Float64()
		switch {
		case p < w.ReadProp:
			ch.ops[i] = mkOp(opRead, d.chooser.Next(&d.rng))
		case p < w.ReadProp+w.UpdateProp:
			ch.ops[i] = mkOp(opUpdate, d.chooser.Next(&d.rng))
		case p < w.ReadProp+w.UpdateProp+w.InsertProp:
			ch.ops[i] = mkOp(opInsert, d.records)
			d.records++
			d.chooser.Grow(d.records)
		case p < w.ReadProp+w.UpdateProp+w.InsertProp+w.RMWProp:
			ch.ops[i] = mkOp(opRMW, d.chooser.Next(&d.rng))
		default:
			ch.ops[i] = mkOp(opScan, d.chooser.Next(&d.rng))
		}
	}
}

// newChunk returns a chunk of n ops whose saved chooser is of d's kind.
func (d *drawer) newChunk(n int64) *chunk {
	ch := &chunk{ops: make([]op, n)}
	ch.chooser = cloneChooser(d.chooser, &ch.z)
	return ch
}

// cloneChooser returns a chooser in ch's state that keeps a zipfian in z.
func cloneChooser(ch Chooser, z *Zipfian) Chooser {
	var c Chooser
	switch ch.(type) {
	case *Uniform:
		c = new(Uniform)
	case *Scrambled:
		c = &Scrambled{z: z}
	case *Latest:
		c = &Latest{z: z}
	case *Zipfian:
		c = z
	default:
		panic(fmt.Sprintf("ycsb: chooser %T cannot be drawn ahead", ch))
	}
	copyChooser(c, ch)
	return c
}

// copyChooser sets dst, a chooser of src's kind, to src's state.
func copyChooser(dst, src Chooser) {
	switch s := src.(type) {
	case *Uniform:
		*dst.(*Uniform) = *s
	case *Scrambled:
		*dst.(*Scrambled).z = *s.z
	case *Latest:
		*dst.(*Latest).z = *s.z
	case *Zipfian:
		*dst.(*Zipfian) = *s
	}
}

// advance makes the next chunk current and starts filling the one after it.
// The run's first chunk is drawn in line, from the client's RNG and the
// run's chooser; each later one was started by the advance before.
func (r *Run) advance() {
	if r.d == nil {
		c := r.c
		d := &drawer{w: r.w, rng: *c.rng, records: c.records, tables: c.tables, filled: make(chan struct{}, 1)}
		d.chooser = cloneChooser(r.chooser, &d.z)
		d.z.tables = &d.tables
		d.ahead = func() {
			d.fill(d.target)
			d.filled <- struct{}{}
		}
		r.d = d
		r.cur = d.newChunk(min(chunkOps, r.ops-r.done))
		d.fill(r.cur)
	} else {
		<-r.d.filled
		r.pending = false
		r.cur, r.next = r.next, r.cur
	}
	// Every chunk before cur has been consumed, so the ops drawn are
	// done + len(cur.ops).
	r.batch, r.pos = r.cur.ops, 0
	n := min(chunkOps, r.ops-r.done-int64(len(r.batch)))
	if n == 0 {
		return // no fill outlives the run's last chunk
	}
	if r.next == nil {
		r.next = r.d.newChunk(chunkOps)
	}
	r.next.ops = r.next.ops[:n]
	r.pending = true
	r.d.target = r.next
	go r.d.ahead()
}

// stop ends a run whose last op Step has executed: the client's RNG and the
// run's chooser are settled there, a fill still in flight (workload E stops
// early) is waited for, and the client keeps the drawer's tables and lets go
// of the run.
func (r *Run) stop() {
	r.settle()
	if r.pending {
		<-r.d.filled
		r.pending = false
	}
	if c := r.c; c.run == r {
		c.tables = r.d.tables
		c.run = nil
	}
	r.d, r.next = nil, nil
}

// settle brings the client's RNG and the run's chooser to the run's current
// op boundary, where drawing in line would have left them: the RNG is the
// current chunk's saved one advanced by the draws of the ops consumed from
// it (the mix, and a key unless the op inserts), and the chooser is the
// chunk's saved one grown to the client's records. It does nothing unless
// the run is the client's and is drawing.
func (r *Run) settle() {
	c := r.c
	if c.run != r || r.d == nil {
		return
	}
	rng := r.cur.rng
	for _, o := range r.batch[:r.pos] {
		rng.Uint64()
		if o.kind() != opInsert {
			rng.Uint64()
		}
	}
	*c.rng = rng
	z := new(Zipfian)
	r.chooser = cloneChooser(r.cur.chooser, z)
	z.tables = &c.tables
	r.chooser.Grow(c.records)
}
