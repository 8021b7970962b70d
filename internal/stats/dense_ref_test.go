package stats

import (
	"fmt"
	"math"
	"sort"

	"multiclock/internal/snapcodec"
)

// The histogram as it was before its counters were paged: one dense array
// indexed by value, grown by doubling to 2²⁰ counters. Kept verbatim
// (renamed, and without Stddev, which has since been deleted) so
// TestHistogramMatchesDense and FuzzHistogramAdd can hold the paged
// Histogram to its exact answers and checkpoint bytes.

type denseHistogram struct {
	counts []uint32  // counts[v] is how many samples equalled integer v
	rest   []float64 // samples that counts could not take
	sorted bool      // rest is in ascending order
	n      int
	sum    float64 // accumulated in Add order, so Mean is reproducible bit for bit
}

// Add records one sample.
func (h *denseHistogram) Add(v float64) {
	h.n++
	h.sum += v
	if v >= 0 && v < denseLimit {
		if i := int(v); float64(i) == v && h.count(i) {
			return
		}
	}
	h.rest = append(h.rest, v)
	h.sorted = false
}

// count increments counts[i] unless the counter is already at its ceiling.
func (h *denseHistogram) count(i int) bool {
	h.reach(i)
	if h.counts[i] == math.MaxUint32 {
		return false
	}
	h.counts[i]++
	return true
}

// reach grows counts, by doubling, until it holds index i.
func (h *denseHistogram) reach(i int) {
	if i < len(h.counts) {
		return
	}
	size := max(2*len(h.counts), 1024)
	for size <= i {
		size *= 2
	}
	grown := make([]uint32, size)
	copy(grown, h.counts)
	h.counts = grown
}

// N returns the number of samples.
func (h *denseHistogram) N() int { return h.n }

// Sum returns the total of all samples.
func (h *denseHistogram) Sum() float64 { return h.sum }

// Mean returns the sample mean, or 0 with no samples.
func (h *denseHistogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Min returns the smallest sample, or 0 with no samples.
func (h *denseHistogram) Min() float64 { return h.Percentile(0) }

// Max returns the largest sample, or 0 with no samples.
func (h *denseHistogram) Max() float64 { return h.Percentile(100) }

// Percentile returns the p-th percentile (0–100) by nearest-rank, or 0 with
// no samples.
func (h *denseHistogram) Percentile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := 0
	switch {
	case p >= 100:
		rank = h.n - 1
	case p > 0:
		rank = max(int(math.Ceil(p/100*float64(h.n)))-1, 0)
	}
	return h.at(rank)
}

// at returns the sample of the given rank, 0 ≤ rank < n, in ascending order:
// a merge of the counted integers with the sorted rest.
func (h *denseHistogram) at(rank int) float64 {
	if !h.sorted {
		sort.Float64s(h.rest)
		h.sorted = true
	}
	r := 0 // h.rest[:r] and the integers below v precede rank
	for v, c := range h.counts {
		if c == 0 {
			continue
		}
		for r < len(h.rest) && !(h.rest[r] >= float64(v)) { // a NaN sorts first
			if rank == 0 {
				return h.rest[r]
			}
			r++
			rank--
		}
		if rank < int(c) {
			return float64(v)
		}
		rank -= int(c)
	}
	return h.rest[r+rank]
}

// bytes is the histogram's checkpoint.
func (h *denseHistogram) bytes() []byte {
	enc := snapcodec.NewEncoder()
	h.SnapshotState(enc)
	return enc.Bytes()
}

// restore reads a checkpoint, all of it, into the histogram.
func (h *denseHistogram) restore(payload []byte) error {
	dec := snapcodec.NewDecoder(payload)
	if err := h.RestoreState(dec); err != nil {
		return err
	}
	return dec.Finish()
}

// SnapshotState encodes the histogram.
func (h *denseHistogram) SnapshotState(enc *snapcodec.Encoder) {
	pairs := 0
	for _, c := range h.counts {
		if c != 0 {
			pairs++
		}
	}
	enc.Int(pairs)
	for v, c := range h.counts {
		if c != 0 {
			enc.U32(uint32(v))
			enc.U32(c)
		}
	}
	enc.Int(len(h.rest))
	for _, v := range h.rest {
		enc.U64(math.Float64bits(v))
	}
	enc.U64(math.Float64bits(h.sum))
}

// RestoreState decodes into the histogram, replacing what it held.
func (h *denseHistogram) RestoreState(dec *snapcodec.Decoder) error {
	pairs := dec.Int()
	if dec.Err() != nil {
		return dec.Err()
	}
	if pairs < 0 || pairs > dec.Remaining()/8 {
		return fmt.Errorf("stats: snapshot claims %d counters in %d bytes", pairs, dec.Remaining())
	}
	*h = denseHistogram{}
	last := -1
	for i := 0; i < pairs; i++ {
		v, c := int(dec.U32()), dec.U32()
		if dec.Err() != nil {
			return dec.Err()
		}
		if v <= last || v >= denseLimit || c == 0 {
			return fmt.Errorf("stats: snapshot counter %d of value %d is out of order, range or empty", i, v)
		}
		h.reach(v)
		h.counts[v] = c
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
