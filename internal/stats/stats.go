// Package stats provides the small statistics toolkit the evaluation
// harness uses: a histogram with exact percentiles, and plain-text table
// rendering for regenerated figures.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Histogram accumulates float64 samples and answers exact order statistics.
// Small non-negative integers, which is every virtual-time latency the
// workload clients record, are counted in pages of counters indexed by value,
// a page allocated when a value in it is first counted; only the other
// samples (fractional, negative, large, or past a counter's range) are kept
// one by one.
type Histogram struct {
	pages  []*counterPage // pages[p][i] counts samples equal to integer p<<pageBits | i; nil until one is
	rest   []float64      // samples that pages could not take
	sorted bool           // rest is in ascending order
	n      int
	sum    float64 // accumulated in Add order, so Mean is reproducible bit for bit
}

const (
	// denseLimit bounds the counted values: integer samples below it are
	// counted. In nanoseconds it is about a millisecond.
	denseLimit = 1 << 20
	// pageBits sizes a page: 128 values, 512 B. A YCSB run's latencies are
	// a dozen hot values of a few microseconds and a few hundred singletons
	// scattered up to denseLimit, one page each, so the footprint is about
	// singletons × page + the pages slice (8 B a page up to the highest one
	// touched). For ≈ 270 singletons that sum is least between 64 and 128
	// values a page, within 2 % at either; 128 keeps the slice at 64 KiB.
	pageBits = 7
	pageSize = 1 << pageBits
)

type counterPage [pageSize]uint32

// Add records one sample.
func (h *Histogram) Add(v float64) {
	h.n++
	h.sum += v
	if v >= 0 && v < denseLimit {
		// A counter already at its ceiling leaves the sample to rest.
		if i := int(v); float64(i) == v {
			if c := &h.page(i >> pageBits)[i&(pageSize-1)]; *c < math.MaxUint32 {
				*c++
				return
			}
		}
	}
	h.rest = append(h.rest, v)
	h.sorted = false
}

// page returns page p, allocating it if need be.
func (h *Histogram) page(p int) *counterPage {
	if p < len(h.pages) && h.pages[p] != nil {
		return h.pages[p]
	}
	return h.newPage(p)
}

// newPage allocates page p, growing pages to reach it: by doubling, so a
// stream that keeps touching higher pages copies the slice only a few times,
// but never past the last page. It is kept out of line so that page, and
// with it the whole per-sample path, is inlined into Add.
//
//go:noinline
func (h *Histogram) newPage(p int) *counterPage {
	if p >= cap(h.pages) {
		grown := make([]*counterPage, p+1, min(max(p+1, 2*cap(h.pages)), denseLimit/pageSize))
		copy(grown, h.pages)
		h.pages = grown
	}
	h.pages = h.pages[:max(p+1, len(h.pages))]
	h.pages[p] = new(counterPage)
	return h.pages[p]
}

// N returns the number of samples.
func (h *Histogram) N() int { return h.n }

// Sum returns the total of all samples.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the sample mean, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Min returns the smallest sample, or 0 with no samples.
func (h *Histogram) Min() float64 { return h.Percentile(0) }

// Max returns the largest sample, or 0 with no samples.
func (h *Histogram) Max() float64 { return h.Percentile(100) }

// Percentile returns the p-th percentile (0–100) by nearest-rank, or 0 with
// no samples.
func (h *Histogram) Percentile(p float64) float64 {
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
func (h *Histogram) at(rank int) float64 {
	if !h.sorted {
		sort.Float64s(h.rest)
		h.sorted = true
	}
	r := 0 // h.rest[:r] and the integers below v precede rank
	for p, pg := range h.pages {
		if pg == nil {
			continue
		}
		for i, c := range pg {
			if c == 0 {
				continue
			}
			v := p<<pageBits | i
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
	}
	return h.rest[r+rank]
}

// Table renders aligned plain-text tables for the regenerated figures.
type Table struct {
	Title   string
	header  []string
	rows    [][]string
	numeric []bool
}

// NewTable creates a table with the given column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, header: header}
}

// AddRow appends a row; missing cells render empty. Passing more cells
// than the table has headers panics: silently dropping the extras (the
// old behavior) could hide a miscounted column in a regenerated figure.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.header) {
		panic(fmt.Sprintf("stats: AddRow with %d cells into %d-column table %q",
			len(cells), len(t.header), t.Title))
	}
	row := make([]string, len(t.header))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
