package metrics

import (
	"testing"

	"multiclock/internal/stats"
)

// quantileLevels are the levels the exporter publishes.
var quantileLevels = []float64{0.50, 0.90, 0.99, 0.999}

// lcg is a tiny deterministic generator for sample synthesis (no math/rand,
// so the fixtures below never drift across Go releases).
type lcg uint64

func (l *lcg) next() uint64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return uint64(*l)
}

// TestQuantileInterpolationErrorBounds feeds several sample shapes through
// both the log2-bucketed Histogram and the exact internal/stats histogram,
// and bounds the interpolated estimate's error against the exact percentile.
// Two bounds are checked per (case, level):
//   - a hard structural bound: the estimate lies within the log2 bucket of
//     the exact percentile or one of its neighbours (rank definitions differ
//     by at most one sample between the two packages), clamped to [min,max];
//   - a per-case relative-error ceiling, pinned well below the ~2× worst
//     case a bucket-upper-bound estimate can reach.
//
// It also asserts the interpolated estimator is, in aggregate, no worse than
// the old conservative bucket-upper-bound estimate it replaced.
func TestQuantileInterpolationErrorBounds(t *testing.T) {
	cases := []struct {
		name    string
		samples func() []int64
		// maxRel is the allowed |est-exact| / max(exact, 1) per level.
		maxRel float64
	}{
		{
			name: "constant",
			samples: func() []int64 {
				out := make([]int64, 4096)
				for i := range out {
					out[i] = 777
				}
				return out
			},
			maxRel: 0, // min==max clamps to the exact value
		},
		{
			name: "uniform_1_to_1000",
			samples: func() []int64 {
				out := make([]int64, 1000)
				for i := range out {
					out[i] = int64(i + 1)
				}
				return out
			},
			maxRel: 0.05,
		},
		{
			name: "uniform_large",
			samples: func() []int64 {
				var r lcg = 42
				out := make([]int64, 8192)
				for i := range out {
					out[i] = int64(r.next() % 1_000_000)
				}
				return out
			},
			maxRel: 0.10,
		},
		{
			// Every sample sits on a bucket's lower edge, so the uniform
			// within-bucket assumption is maximally wrong: this is the
			// estimator's worst shape, bounded by the bucket width (~1×).
			// Odd count keeps the two packages' rank conventions aligned.
			name: "geometric",
			samples: func() []int64 {
				out := make([]int64, 1999)
				for i := range out {
					out[i] = int64(1) << (i % 20)
				}
				return out
			},
			maxRel: 1.01,
		},
		{
			name: "bimodal_latency",
			samples: func() []int64 {
				var r lcg = 7
				out := make([]int64, 10000)
				for i := range out {
					if r.next()%100 < 95 {
						out[i] = 80 + int64(r.next()%40) // fast path ~[80,120)
					} else {
						out[i] = 3000 + int64(r.next()%2000) // slow tail
					}
				}
				return out
			},
			maxRel: 0.35,
		},
		{
			// Odd count keeps the two packages' rank conventions aligned.
			name: "zeros_and_ones",
			samples: func() []int64 {
				out := make([]int64, 101)
				for i := range out {
					out[i] = int64(i % 2)
				}
				return out
			},
			maxRel: 0, // one-value buckets interpolate exactly
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			samples := tc.samples()
			var h Histogram
			var exact stats.Histogram
			for _, v := range samples {
				h.Observe(v)
				exact.Add(float64(v))
			}
			var sumErrNew, sumErrOld float64
			for _, q := range quantileLevels {
				est := h.Quantile(q)
				ex := int64(exact.Percentile(q * 100))

				// Hard structural bound: est within the exact value's bucket
				// or a neighbour, clamped to the observed range.
				lo, hi := neighborhood(ex)
				if mn := h.min; lo < mn {
					lo = mn
				}
				if mx := h.max; hi > mx {
					hi = mx
				}
				if est < lo || est > hi {
					t.Errorf("q=%v: estimate %d outside bucket neighbourhood [%d, %d] of exact %d",
						q, est, lo, hi, ex)
				}

				// Per-case relative ceiling.
				den := ex
				if den < 1 {
					den = 1
				}
				rel := abs64(est-ex) / float64(den)
				if rel > tc.maxRel {
					t.Errorf("q=%v: estimate %d vs exact %d: relative error %.4f > %.4f",
						q, est, ex, rel, tc.maxRel)
				}
				sumErrNew += abs64(est - ex)

				// The estimator this replaced: the covering bucket's upper
				// bound, no clamping.
				sumErrOld += abs64(bucketMaxQuantile(&h, q) - ex)
			}
			if sumErrNew > sumErrOld {
				t.Errorf("interpolation total error %.0f exceeds old bucket-max estimator %.0f",
					sumErrNew, sumErrOld)
			}

			// Monotonicity across levels.
			prev := int64(-1)
			for _, q := range quantileLevels {
				v := h.Quantile(q)
				if v < prev {
					t.Fatalf("quantiles not monotone at q=%v", q)
				}
				prev = v
			}
		})
	}
}

// neighborhood returns the value range of v's log2 bucket widened by one
// bucket on each side.
func neighborhood(v int64) (lo, hi int64) {
	k := 0
	for u := bucketUpper(k); u < v; u = bucketUpper(k) {
		k++
	}
	if k > 0 {
		lo = bucketLower(k - 1)
	}
	hi = bucketUpper(k + 1)
	return lo, hi
}

// bucketMaxQuantile re-derives the pre-interpolation estimate: the covering
// bucket's inclusive upper bound.
func bucketMaxQuantile(h *Histogram, q float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(q * float64(h.n))
	if rank >= h.n {
		rank = h.n - 1
	}
	var seen int64
	for k, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+c > rank {
			return bucketUpper(k)
		}
		seen += c
	}
	return h.max
}

func abs64(v int64) float64 {
	if v < 0 {
		v = -v
	}
	return float64(v)
}

// TestBucketBoundsInverse pins BucketBounds as the exact inverse of the
// exported le key: for every bucket, BucketBounds(bucketUpper(k)) returns
// that bucket's [lower, upper] range.
func TestBucketBoundsInverse(t *testing.T) {
	for k := 0; k <= 64; k++ {
		le := bucketUpper(k)
		lo, hi := BucketBounds(le)
		wantLo, wantHi := bucketLower(k), bucketUpper(k)
		if k >= 63 {
			// Buckets 63 and 64 share the int64 ceiling as le; the mapping
			// resolves to bucket 63's range.
			wantLo, wantHi = bucketLower(63), bucketUpper(63)
		}
		if lo != wantLo || hi != wantHi {
			t.Fatalf("BucketBounds(%d) = [%d, %d], want [%d, %d] (bucket %d)",
				le, lo, hi, wantLo, wantHi, k)
		}
	}
	if lo, hi := BucketBounds(0); lo != 0 || hi != 0 {
		t.Fatalf("BucketBounds(0) = [%d, %d], want [0, 0]", lo, hi)
	}
}
