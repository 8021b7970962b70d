package stats

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"multiclock/internal/snapcodec"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.N() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 ||
		h.Percentile(50) != 0 || h.Stddev() != 0 || h.Sum() != 0 {
		t.Fatal("empty histogram should be all zeros")
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	for _, v := range []float64{5, 1, 3, 2, 4} {
		h.Add(v)
	}
	if h.N() != 5 || h.Sum() != 15 || h.Mean() != 3 {
		t.Fatalf("N=%d Sum=%v Mean=%v", h.N(), h.Sum(), h.Mean())
	}
	if h.Min() != 1 || h.Max() != 5 {
		t.Fatal("min/max")
	}
	if h.Percentile(50) != 3 {
		t.Fatalf("p50 = %v", h.Percentile(50))
	}
	if h.Percentile(0) != 1 || h.Percentile(100) != 5 {
		t.Fatal("extreme percentiles")
	}
	want := math.Sqrt(2) // population stddev of 1..5
	if math.Abs(h.Stddev()-want) > 1e-12 {
		t.Fatalf("stddev = %v, want %v", h.Stddev(), want)
	}
}

func TestHistogramAddAfterQuery(t *testing.T) {
	var h Histogram
	h.Add(10)
	_ = h.Max()
	h.Add(20)
	if h.Max() != 20 {
		t.Fatal("re-sort after Add broken")
	}
}

func TestPercentileMatchesNearestRank(t *testing.T) {
	f := func(raw []float64, p uint8) bool {
		var vals []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		var h Histogram
		for _, v := range vals {
			h.Add(v)
		}
		pct := float64(p % 101)
		got := h.Percentile(pct)
		sort.Float64s(vals)
		rank := int(math.Ceil(pct/100*float64(len(vals)))) - 1
		if rank < 0 {
			rank = 0
		}
		return got == vals[rank]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWindowSeries(t *testing.T) {
	w := NewWindowSeries(20)
	w.Count(5)
	w.Count(19)
	w.Observe(25, 10)
	w.Observe(65, 4)
	if w.Windows() != 4 {
		t.Fatalf("windows = %d, want 4", w.Windows())
	}
	if w.Sum(0) != 2 || w.N(0) != 2 {
		t.Fatal("window 0")
	}
	if w.Sum(1) != 10 || w.Mean(1) != 10 {
		t.Fatal("window 1")
	}
	if w.Sum(2) != 0 || w.Mean(2) != 0 {
		t.Fatal("empty window 2")
	}
	sums := w.Sums()
	if len(sums) != 4 || sums[3] != 4 {
		t.Fatalf("Sums = %v", sums)
	}
}

func TestWindowSeriesEmpty(t *testing.T) {
	w := NewWindowSeries(10)
	if w.Windows() != 0 || len(w.Sums()) != 0 {
		t.Fatal("empty series")
	}
}

func TestWindowSeriesBadWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewWindowSeries(0)
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Fig X", "workload", "static", "multiclock")
	tb.AddRow("A", "1.000", "1.350")
	tb.AddNumRow("B", 1, 1.22)
	out := tb.String()
	if !strings.Contains(out, "Fig X") || !strings.Contains(out, "workload") {
		t.Fatalf("missing title/header:\n%s", out)
	}
	if !strings.Contains(out, "1.350") || !strings.Contains(out, "1.220") {
		t.Fatalf("missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("line count %d:\n%s", len(lines), out)
	}
	// Alignment: all data lines same width as header line.
	if len(lines[1]) != len(lines[2]) {
		t.Fatal("separator misaligned")
	}
}

func TestTableShortRow(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("only")
	if !strings.Contains(tb.String(), "only") {
		t.Fatal("short row lost")
	}
}

// TestTableOverfullRowPanics pins the AddRow contract: a row wider than
// the header is a caller bug, and silently dropping the extra cells (the
// old behavior) would hide a miscounted column in a regenerated figure.
func TestTableOverfullRowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on overfull row")
		}
	}()
	tb := NewTable("t", "a", "b")
	tb.AddRow("1", "2", "dropped-before-this-fix")
}

func TestFormatNum(t *testing.T) {
	cases := map[float64]string{
		3:       "3",
		1234567: "1234567",
		250.5:   "250.5",
		0.125:   "0.125",
	}
	for v, want := range cases {
		if got := FormatNum(v); got != want {
			t.Errorf("FormatNum(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestNormalize(t *testing.T) {
	got := Normalize(2, []float64{2, 4, 1})
	want := []float64{1, 2, 0.5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Normalize = %v", got)
		}
	}
	if z := Normalize(0, []float64{1, 2}); z[0] != 0 || z[1] != 0 {
		t.Fatal("zero base")
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{1, 4}); math.Abs(g-2) > 1e-12 {
		t.Fatalf("GeoMean = %v, want 2", g)
	}
	if g := GeoMean([]float64{2, 0, -1}); math.Abs(g-2) > 1e-12 {
		t.Fatal("non-positive values must be ignored")
	}
	if GeoMean(nil) != 0 {
		t.Fatal("empty geomean")
	}
}

// nearestRank is Percentile as the histogram answered it before it counted:
// every sample kept, sorted, indexed.
func nearestRank(sorted []float64, p float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return 0
	case p <= 0:
		return sorted[0]
	case p >= 100:
		return sorted[n-1]
	}
	return sorted[max(int(math.Ceil(p/100*float64(n)))-1, 0)]
}

// checkAgainstReference compares every statistic the histogram offers with
// the sort-based reference over the same samples in the same order.
func checkAgainstReference(t *testing.T, h *Histogram, samples []float64) {
	t.Helper()
	if h.N() != len(samples) {
		t.Fatalf("N = %d, want %d", h.N(), len(samples))
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	if math.Float64bits(h.Sum()) != math.Float64bits(sum) {
		t.Fatalf("Sum = %v, want %v (same order of addition)", h.Sum(), sum)
	}
	if len(samples) > 0 && math.Float64bits(h.Mean()) != math.Float64bits(sum/float64(len(samples))) {
		t.Fatalf("Mean = %v", h.Mean())
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	if h.Min() != nearestRank(sorted, 0) || h.Max() != nearestRank(sorted, 100) {
		t.Fatalf("Min, Max = %v, %v, want %v, %v", h.Min(), h.Max(), nearestRank(sorted, 0), nearestRank(sorted, 100))
	}
	for p := -1.0; p <= 101; p += 0.5 {
		if got, want := h.Percentile(p), nearestRank(sorted, p); got != want {
			t.Fatalf("Percentile(%v) = %v, want %v over %d samples", p, got, want, len(samples))
		}
	}
}

// mixedSamples draws from every class Add distinguishes: counted integers,
// fractions between them, negatives, and values at and past denseLimit.
func mixedSamples(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		switch rng.Intn(8) {
		case 0:
			out[i] = float64(rng.Intn(50)) + 0.5
		case 1:
			out[i] = -float64(rng.Intn(20))
		case 2:
			out[i] = float64(denseLimit - 2 + rng.Intn(4))
		case 3:
			out[i] = rng.Float64() * 3 * denseLimit
		default:
			out[i] = float64(rng.Intn(3000))
		}
	}
	return out
}

func TestHistogramMatchesSortedReference(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		samples := mixedSamples(seed, 4000)
		var h Histogram
		for i, v := range samples {
			h.Add(v)
			if i%1999 == 0 { // queries between Adds must not disturb later ones
				checkAgainstReference(t, &h, samples[:i+1])
			}
		}
		checkAgainstReference(t, &h, samples)
		if len(h.rest) == 0 || len(h.rest) > len(samples)/2 {
			t.Fatalf("%d of %d samples kept one by one", len(h.rest), len(samples))
		}
	}
}

// TestHistogramCounterSaturates fills one counter to its ceiling: further
// samples of that value are kept one by one and every statistic stays exact.
func TestHistogramCounterSaturates(t *testing.T) {
	var h Histogram
	for _, v := range []float64{3, 7, 7, 9.5} {
		h.Add(v)
	}
	h.counts[7] = math.MaxUint32 - 1 // as if 7 had been added that often
	h.n += math.MaxUint32 - 1 - 2
	h.Add(7)
	if h.counts[7] != math.MaxUint32 || len(h.rest) != 1 {
		t.Fatalf("counter %d, %d samples kept", h.counts[7], len(h.rest))
	}
	h.Add(7)
	h.Add(7)
	if h.counts[7] != math.MaxUint32 || len(h.rest) != 3 {
		t.Fatalf("a full counter took more: counter %d, %d samples kept", h.counts[7], len(h.rest))
	}
	if want := math.MaxUint32 + 4; h.N() != want {
		t.Fatalf("N = %d, want %d", h.N(), want)
	}
	if h.Min() != 3 || h.Max() != 9.5 || h.Percentile(50) != 7 || h.at(1) != 7 || h.at(h.N()-2) != 7 {
		t.Fatalf("min %v max %v p50 %v", h.Min(), h.Max(), h.Percentile(50))
	}
}

func TestHistogramSnapshotRoundTrip(t *testing.T) {
	samples := mixedSamples(9, 3000)
	var h Histogram
	for _, v := range samples {
		h.Add(v)
	}
	enc := snapcodec.NewEncoder()
	h.SnapshotState(enc)
	if perSample := 8 * len(samples); enc.Len() >= perSample {
		t.Fatalf("snapshot is %d bytes; one word per sample would be %d", enc.Len(), perSample)
	}
	restored := Histogram{rest: []float64{1, 2}, n: 2, sum: 3} // must be replaced, not added to
	dec := snapcodec.NewDecoder(enc.Bytes())
	if err := restored.RestoreState(dec); err != nil {
		t.Fatal(err)
	}
	if err := dec.Finish(); err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, &restored, samples)
	checkAgainstReference(t, &h, samples)
	// Both continue identically and snapshot to the same bytes.
	for _, v := range mixedSamples(10, 500) {
		h.Add(v)
		restored.Add(v)
	}
	a, b := snapcodec.NewEncoder(), snapcodec.NewEncoder()
	h.SnapshotState(a)
	restored.SnapshotState(b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("restored histogram diverged from the original")
	}
}

// FuzzHistogramRestore feeds RestoreState arbitrary payloads: a rejection is
// an error, never a panic or an allocation sized by an unchecked length, and
// an accepted histogram is consistent and re-encodes to what it was given.
func FuzzHistogramRestore(f *testing.F) {
	var h Histogram
	for _, v := range mixedSamples(4, 200) {
		h.Add(v)
	}
	enc := snapcodec.NewEncoder()
	h.SnapshotState(enc)
	good := enc.Bytes()
	f.Add(good)
	f.Add(good[:len(good)-3])
	f.Add([]byte{})
	huge := snapcodec.NewEncoder()
	huge.Int(1 << 40)
	f.Add(huge.Bytes())
	f.Fuzz(func(t *testing.T, payload []byte) {
		var h Histogram
		dec := snapcodec.NewDecoder(payload)
		if err := h.RestoreState(dec); err != nil {
			return
		}
		total := len(h.rest)
		for _, c := range h.counts {
			total += int(c)
		}
		if h.N() != total || len(h.counts) > denseLimit {
			t.Fatalf("accepted N = %d over %d samples in %d counters", h.N(), total, len(h.counts))
		}
		again := snapcodec.NewEncoder()
		h.SnapshotState(again)
		if consumed := payload[:len(payload)-dec.Remaining()]; !bytes.Equal(again.Bytes(), consumed) {
			t.Fatal("accepted payload re-encodes differently")
		}
		if h.N() > 0 { // queries sort the kept samples, so they come after the re-encoding
			lo, hi := h.Min(), h.Max()
			if mid := h.Percentile(50); lo > mid || mid > hi {
				t.Fatalf("min %v p50 %v max %v", lo, mid, hi)
			}
		}
	})
}
