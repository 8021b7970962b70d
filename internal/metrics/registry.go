// Package metrics is the virtual-clock-native observability layer: a
// per-machine registry of counters, gauges and log-bucketed histograms, a
// ring-buffered structured event trace stamped with virtual time, and
// deterministic JSON/CSV exporters. It exists to regenerate the paper's
// telemetry-heavy evaluation (promotion volumes over time, daemon overhead
// vs. scan period, access heatmaps) from a single instrumented run.
//
// Everything here is passive: recording a sample never advances the virtual
// clock or charges tax, so an instrumented run is bit-for-bit identical to
// an uninstrumented one on the simulation timeline — the same no-op
// discipline the fault-injection layer established. A registry is
// single-threaded like the machine it observes; the Pool coordinates many
// registries across concurrently simulated machines.
package metrics

import (
	"math/bits"
	"sort"
)

// Registry holds one machine's metric instruments, keyed by name. Handles
// are get-or-create: resolving the same name twice returns the same
// instrument, so producers need no registration ceremony.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	events   *EventTrace // nil when event tracing is disabled
}

// NewRegistry creates an empty registry. traceEvents sizes the structured
// event ring buffer; zero or negative disables event tracing entirely.
func NewRegistry(traceEvents int) *Registry {
	r := &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
	if traceEvents > 0 {
		r.events = newEventTrace(traceEvents)
	}
	return r
}

// Counter returns the counter with the given name, creating it at zero.
func (r *Registry) Counter(name string) *Counter {
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge with the given name, creating it at zero.
func (r *Registry) Gauge(name string) *Gauge {
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram with the given name, creating it empty.
func (r *Registry) Histogram(name string) *Histogram {
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Events returns the event trace, or nil when tracing is disabled.
func (r *Registry) Events() *EventTrace { return r.events }

// sortedNames returns map keys in lexical order (deterministic export).
func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Counter is a monotonically increasing event count.
type Counter struct {
	v int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n (negative n panics: counters only go up).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("metrics: negative Counter.Add")
	}
	c.v += n
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v }

// Gauge is an instantaneous level (queue depth, free frames). It remembers
// the last value set and the maximum ever seen.
type Gauge struct {
	last, max int64
	any       bool
}

// Set records the current level.
func (g *Gauge) Set(v int64) {
	g.last = v
	if !g.any || v > g.max {
		g.max = v
	}
	g.any = true
}

// Last returns the most recently set value.
func (g *Gauge) Last() int64 { return g.last }

// Max returns the largest value ever set.
func (g *Gauge) Max() int64 { return g.max }

// Histogram accumulates non-negative int64 samples (virtual-time durations
// in nanoseconds, queue depths) into logarithmic buckets: bucket k counts
// samples in [2^(k-1), 2^k-1], with bucket 0 counting exact zeros. Constant
// space, O(1) insert, and deterministic export — the shape the daemon-pass
// and migration-latency distributions need without keeping every sample.
type Histogram struct {
	counts [65]int64
	n      int64
	sum    int64
	min    int64
	max    int64
}

// Observe records one sample. Negative samples clamp to zero (virtual-time
// durations are never negative; clamping keeps the exporter total-ordered).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bits.Len64(uint64(v))]++
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
}

// ObserveInt records an int sample.
func (h *Histogram) ObserveInt(v int) { h.Observe(int64(v)) }

// N returns the sample count.
func (h *Histogram) N() int64 { return h.n }

// Sum returns the sample total.
func (h *Histogram) Sum() int64 { return h.sum }

// bucketUpper returns the inclusive upper bound of bucket k.
func bucketUpper(k int) int64 {
	if k == 0 {
		return 0
	}
	if k >= 63 {
		return int64(^uint64(0) >> 1) // 2^63-1: the int64 ceiling
	}
	return (int64(1) << k) - 1
}

// bucketLower returns the inclusive lower bound of bucket k.
func bucketLower(k int) int64 {
	if k <= 0 {
		return 0
	}
	return int64(1) << (k - 1)
}

// BucketBounds returns the inclusive [lower, upper] value range of exported
// bucket upper-bound le (the wire-format key): the log2 bucket whose upper
// bound is le. Consumers that re-derive within-bucket statistics from an
// export (the SLO engine, quantile re-estimation) share this one mapping.
func BucketBounds(le int64) (lo, hi int64) {
	if le <= 0 {
		return 0, 0
	}
	return le/2 + 1, le
}

// Counts returns a copy of the per-bucket sample counts, indexed by log2
// bucket (bucketUpper gives each index's upper bound). The SLO engine diffs
// successive snapshots to recover per-window distributions.
func (h *Histogram) Counts() [65]int64 { return h.counts }

// BucketRange returns the inclusive [lower, upper] value range of bucket k,
// the index into Counts.
func BucketRange(k int) (lo, hi int64) { return bucketLower(k), bucketUpper(k) }

// Quantile estimates the q-th quantile (0–1) from the buckets with linear
// interpolation inside the covering bucket (samples assumed uniform within
// a bucket's value range), clamped to the observed [min, max]. Returns 0
// with no samples. The estimate is never below the bucket's lower bound nor
// above its upper bound, so the error is bounded by the bucket width.
func (h *Histogram) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(h.n))
	if rank >= h.n {
		rank = h.n - 1
	}
	// The extreme order statistics are tracked exactly; return them rather
	// than interpolating (so Quantile(0) == min and Quantile(1) == max).
	if rank <= 0 {
		return h.min
	}
	if rank >= h.n-1 {
		return h.max
	}
	var seen int64
	for k, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+c > rank {
			v := interpolate(bucketLower(k), bucketUpper(k), rank-seen, c)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
		seen += c
	}
	return h.max
}

// interpolate places the pos-th of c samples (0-based) uniformly on the
// inclusive value range [lo, hi]: sample pos sits at the midpoint of its
// 1/c slice of the range. All-integer, so equal inputs give equal outputs
// on every platform.
func interpolate(lo, hi, pos, c int64) int64 {
	if c <= 1 || hi <= lo {
		return lo + (hi-lo)/2
	}
	return lo + ((hi-lo)*(2*pos+1))/(2*c)
}
