package stats

import (
	"fmt"

	"multiclock/internal/snapcodec"
)

// Checkpoint serialization for Histogram: the non-zero counters as ascending
// (value, count) pairs, the remaining samples in their in-memory order, and
// the incrementally accumulated sum — float addition order matters
// bit-for-bit — so a restored histogram answers every query with the
// identical result. The size follows the number of distinct values, not the
// number of samples.

// Checkpoint codes the histogram. Reading, it replaces what the histogram
// held, allocating only the pages the checkpoint's counters fall in.
func (h *Histogram) Checkpoint(c *snapcodec.Codec) error {
	pairs := 0
	h.eachCounter(func(int, uint32) { pairs++ })
	snapcodec.I64(c, &pairs)
	if c.Err() != nil {
		return c.Err()
	}
	if pairs < 0 || pairs > c.Remaining()/8 {
		return fmt.Errorf("stats: snapshot claims %d counters in %d bytes", pairs, c.Remaining())
	}
	if c.Reading() {
		*h = Histogram{}
		last := -1
		for i := 0; i < pairs; i++ {
			var v int
			var n uint32
			snapcodec.U32(c, &v)
			snapcodec.U32(c, &n)
			if c.Err() != nil {
				return c.Err()
			}
			if v <= last || v >= denseLimit || n == 0 {
				return fmt.Errorf("stats: snapshot counter %d of value %d is out of order, range or empty", i, v)
			}
			h.page(v >> pageBits)[v&(pageSize-1)] = n
			h.n += int(n)
			last = v
		}
	} else {
		h.eachCounter(func(v int, n uint32) {
			snapcodec.U32(c, &v)
			snapcodec.U32(c, &n)
		})
	}
	n := len(h.rest)
	snapcodec.I64(c, &n)
	if c.Err() != nil {
		return c.Err()
	}
	if n < 0 || n > c.Remaining()/8 {
		return fmt.Errorf("stats: snapshot claims %d samples in %d bytes", n, c.Remaining())
	}
	if c.Reading() {
		h.rest = make([]float64, n)
		h.n += n
	}
	for i := range h.rest {
		snapcodec.F64(c, &h.rest[i])
	}
	snapcodec.F64(c, &h.sum)
	return c.Err()
}

// eachCounter calls fn with every non-zero counter in ascending order of
// value.
func (h *Histogram) eachCounter(fn func(v int, c uint32)) {
	for p, pg := range h.pages {
		if pg == nil {
			continue
		}
		for i, c := range pg {
			if c != 0 {
				fn(p<<pageBits|i, c)
			}
		}
	}
}
