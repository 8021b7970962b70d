package stats

import (
	"fmt"
	"math"

	"multiclock/internal/snapcodec"
)

// Checkpoint serialization for Histogram: the non-zero counters as ascending
// (value, count) pairs, the remaining samples in their in-memory order, and
// the incrementally accumulated sum — float addition order matters
// bit-for-bit — so a restored histogram answers every query with the
// identical result. The size follows the number of distinct values, not the
// number of samples.

// SnapshotState encodes the histogram.
func (h *Histogram) SnapshotState(enc *snapcodec.Encoder) {
	pairs := 0
	h.eachCounter(func(int, uint32) { pairs++ })
	enc.Int(pairs)
	h.eachCounter(func(v int, c uint32) {
		enc.U32(uint32(v))
		enc.U32(c)
	})
	enc.Int(len(h.rest))
	for _, v := range h.rest {
		enc.U64(math.Float64bits(v))
	}
	enc.U64(math.Float64bits(h.sum))
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

// RestoreState decodes into the histogram, replacing what it held. It
// allocates only the pages the checkpoint's counters fall in.
func (h *Histogram) RestoreState(dec *snapcodec.Decoder) error {
	pairs := dec.Int()
	if dec.Err() != nil {
		return dec.Err()
	}
	if pairs < 0 || pairs > dec.Remaining()/8 {
		return fmt.Errorf("stats: snapshot claims %d counters in %d bytes", pairs, dec.Remaining())
	}
	*h = Histogram{}
	last := -1
	for i := 0; i < pairs; i++ {
		v, c := int(dec.U32()), dec.U32()
		if dec.Err() != nil {
			return dec.Err()
		}
		if v <= last || v >= denseLimit || c == 0 {
			return fmt.Errorf("stats: snapshot counter %d of value %d is out of order, range or empty", i, v)
		}
		h.page(v >> pageBits)[v&(pageSize-1)] = c
		h.n += int(c)
		last = v
	}
	n := dec.Int()
	if dec.Err() != nil {
		return dec.Err()
	}
	if n < 0 || n > dec.Remaining()/8 {
		return fmt.Errorf("stats: snapshot claims %d samples in %d bytes", n, dec.Remaining())
	}
	h.rest = make([]float64, n)
	for i := range h.rest {
		h.rest[i] = math.Float64frombits(dec.U64())
	}
	h.n += n
	h.sum = math.Float64frombits(dec.U64())
	return dec.Err()
}
