package ycsb

import "math/bits"

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

// zipfTable is the exact inverse of Zipfian.keyOf for one (items, zetan).
type zipfTable struct {
	// first[k] is the smallest draw whose item is ≥ k, so first[0] = 0;
	// first[items] = 1<<drawBits stops the walk.
	first []uint64
	// guide is indexed by a draw's top bits. guide[c]>>1 is the item of the
	// cell's first draw, c<<shift; guide[c]&1 says a later draw of the cell
	// belongs to a later item, so first must be walked. The popular items
	// span many cells each, so most draws end here.
	guide []uint32
	shift uint
}

// tableBuildEvals is about how many formula evaluations buildTable makes for
// n items, or 0 when n gets no table. A chooser builds once the formula has
// answered that many draws: by then a table would have cost no more than what
// was already spent, and choosers that stop or Grow sooner never pay for one.
func tableBuildEvals(n int64) int64 {
	if n > tableMaxItems {
		return 0
	}
	return n * (searchEvals + 2*tableWindow)
}

// buildTable returns the table for z, or nil if it failed verification.
func (z *Zipfian) buildTable() *zipfTable {
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
		shift: drawBits - cellBits,
	}
	for k := int64(1); k <= n; k++ {
		t.first[k] = z.firstDraw(k)
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
	if !t.verify(z) {
		return nil
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

// keyOf returns draw m's item.
func (t *zipfTable) keyOf(m uint64) int64 {
	g := t.guide[m>>t.shift]
	k := int64(g >> 1)
	if g&1 != 0 {
		for t.first[k+1] <= m {
			k++
		}
	}
	return k
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
