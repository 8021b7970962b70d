package ycsb

import (
	"math"
	"math/bits"
)

// The zipfian formula costs one math.Pow per draw, and on the evaluation's
// key spaces that made the workload generator dearer in host time than the
// machine it drives. A draw is only 53 bits, so the formula has an exact
// inverse: first[k], the smallest draw whose item is ≥ k. Answering from that
// table returns the item the formula would have, bit for bit.
//
// The table rests on one assumption: keyOf is weakly monotone in the draw.
// Every step of it is (an exact quotient, products and sums with positive
// constants, math.Pow's repeated squaring, a truncation), except that
// math.Pow is not specified to be; a last-place wobble could only show where
// items*pow crosses an integer, i.e. next to a threshold. So the build checks
// draws on either side of every threshold against the formula, and a chooser
// whose table disagrees anywhere keeps the formula.

const (
	// tableWindow is how many draws each side of a threshold the build
	// verifies against the formula, at doubling distances from it.
	tableWindow = 6
	// searchEvals is the formula evaluations firstDraw averages at the
	// default theta; flatter distributions take fewer.
	searchEvals = 6
	// tableMaxItems bounds the key spaces that get a table: it beats pow
	// only while it stays cache-resident beside the simulated machine's
	// own state. At 1 Mi items it is 9 MiB, measured no faster than the
	// formula, and took two seconds to build.
	tableMaxItems = 1 << 18
)

// zipfTable is the exact inverse of Zipfian.keyOf for one key space, with a
// chooser's fold applied to its answers.
type zipfTable struct {
	// first[k] is the smallest draw whose item is ≥ k, so first[0] = 0;
	// first[items] = 1<<drawBits stops the walk.
	first []uint64
	// guide is indexed by a draw's top bits. An even guide[c] is a cell
	// whose draws all belong to one item, and guide[c]>>1 is that item's
	// answer. An odd one is a cell where later items start: guide[c]>>1 is
	// the item of its first draw, c<<shift, from which first is walked. The
	// popular items span many cells each, so most draws end here.
	guide []uint32
	// keys[k] is item k's answer.
	keys  []uint32
	shift uint
}

// keySpace is what a table is a function of: the state keyOf reads (alpha
// and second derive from theta) and the fold of its answers.
type keySpace struct {
	items             int64
	theta, zetan, eta uint64 // math.Float64bits
	fold              fold
}

func (z *Zipfian) space(f fold) keySpace {
	return keySpace{z.items, math.Float64bits(z.theta), math.Float64bits(z.zetan), math.Float64bits(z.eta), f}
}

// tableCache holds the table of one key space and counts the formula draws
// made over it. A Client owns one for every chooser it makes or restores, so
// a key space is built and verified once however many runs draw from it; a
// chooser made on its own owns its own.
type tableCache struct {
	space  keySpace
	served int64      // formula draws over space
	table  *zipfTable // nil until served reaches tableBuildEvals, or if it failed verification
}

// draw counts one formula draw by z and returns the table for its key space
// and fold, building it on the draw that completes the payment; nil means the
// formula answers. Another key space replaces the one held.
func (c *tableCache) draw(z *Zipfian, f fold) *zipfTable {
	c.hold(z, f)
	if c.table == nil {
		if c.served++; c.served == tableBuildEvals(c.space.items) {
			c.table = z.buildTable(f)
		}
	}
	return c.table
}

// prepay builds the table for z's key space and fold before the draws that
// would pay for it, and counts them as made, so a table that fails
// verification is not built again. A key space already paid for is left as
// it is.
func (c *tableCache) prepay(z *Zipfian, f fold) {
	c.hold(z, f)
	if evals := tableBuildEvals(c.space.items); c.served < evals {
		c.served = evals
		c.table = z.buildTable(f)
	}
}

// hold moves the cache to z's key space and fold, dropping another one's
// count and table.
func (c *tableCache) hold(z *Zipfian, f fold) {
	if s := z.space(f); s != c.space {
		*c = tableCache{space: s}
	}
}

// tableBuildEvals is about how many formula evaluations buildTable makes for
// n items. A key space is built once the formula has answered that many of
// its draws: by then a table would have cost no more than what was already
// spent, and key spaces that are left or grown sooner never pay for one.
func tableBuildEvals(n int64) int64 { return n * (searchEvals + 2*tableWindow) }

// buildTable returns the table for z with f folded into its answers, or nil
// if it failed verification.
func (z *Zipfian) buildTable(f fold) *zipfTable {
	n := z.items
	// Between a quarter and half as many cells as items. On the 24 000
	// records of the evaluation that measured fastest next to a running
	// machine: 58 % of the draws end in a 32 KiB guide, and a tail cell's
	// thresholds fill a line or two of first. More cells resolve more
	// draws but miss the cache doing it.
	cellBits := uint(0)
	if n > 4 {
		cellBits = uint(bits.Len64(uint64(n-1))) - 2
	}
	t := &zipfTable{
		first: make([]uint64, n+1),
		guide: make([]uint32, 1<<cellBits),
		keys:  make([]uint32, n),
		shift: drawBits - cellBits,
	}
	for k := int64(1); k <= n; k++ {
		t.first[k] = z.firstDraw(k)
	}
	for k := range t.keys {
		t.keys[k] = uint32(k)
	}
	k := uint32(0)
	for c := range t.guide {
		for t.first[k+1] <= uint64(c)<<t.shift {
			k++
		}
		t.guide[c] = k << 1
		if t.first[k+1] < uint64(c+1)<<t.shift {
			t.guide[c] |= 1
		}
	}
	// Verified on items, the fold is then a relabelling: a scrambled table
	// that passes cannot owe it to two neighbours scrambling alike.
	if !t.verify(z) {
		return nil
	}
	if f != plain {
		for k := range t.keys {
			t.keys[k] = uint32(f.apply(int64(k), n))
		}
		for c, g := range t.guide {
			if g&1 == 0 {
				t.guide[c] = t.keys[g>>1] << 1
			}
		}
	}
	return t
}

// firstDraw returns the smallest draw whose item is ≥ k ≥ 1, reading the
// value one past the last draw as item z.items.
func (z *Zipfian) firstDraw(k int64) uint64 {
	// keyOf(lo) < k ≤ keyOf(hi) throughout.
	lo, hi := uint64(0), uint64(1)<<drawBits
	// The formula's last branch inverts in closed form to within a few
	// dozen draws; step away from that estimate in doubling strides until
	// the threshold is straddled, then bisect what is left.
	x := pow(float64(k)/float64(z.items), 1/z.alpha)
	m := uint64(0)
	if u := (x - 1 + z.eta) / z.eta; u >= 1 {
		m = hi
	} else if u > 0 { // false for the NaN a two-item eta yields
		m = uint64(u * (1 << drawBits))
	}
	for step := uint64(1); lo < m && m < hi; step *= 2 {
		if z.keyOf(m) >= k {
			hi = m
			m -= min(step, m)
		} else {
			lo = m
			m += step
		}
	}
	for hi-lo > 1 {
		if m = lo + (hi-lo)/2; z.keyOf(m) >= k {
			hi = m
		} else {
			lo = m
		}
	}
	return hi
}

// keyOf returns draw m's answer.
func (t *zipfTable) keyOf(m uint64) int64 {
	g := t.guide[m>>t.shift]
	if g&1 == 0 {
		return int64(g >> 1)
	}
	k := g >> 1
	for t.first[k+1] <= m {
		k++
	}
	return int64(t.keys[k])
}

// verify reports whether the table answers as the formula does around every
// threshold.
func (t *zipfTable) verify(z *Zipfian) bool {
	for _, th := range t.first[1:] {
		for d := uint64(1); d < 1<<tableWindow; d *= 2 {
			// th ≥ first[1] > 0, so th-d wraps past the last draw
			// rather than to a valid one.
			for _, m := range [2]uint64{th - d, th + d - 1} {
				if m < 1<<drawBits && t.keyOf(m) != z.keyOf(m) {
					return false
				}
			}
		}
	}
	return true
}
