package stats

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"multiclock/internal/snapcodec"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.N() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 ||
		h.Percentile(50) != 0 || h.Sum() != 0 {
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

func TestTableRendering(t *testing.T) {
	tb := NewTable("Fig X", "workload", "static", "multiclock")
	tb.AddRow("A", "1.000", "1.350")
	tb.AddRow("B", "1", "1.220")
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
	seven := &h.pages[0][7]
	*seven = math.MaxUint32 - 1 // as if 7 had been added that often
	h.n += math.MaxUint32 - 1 - 2
	h.Add(7)
	if *seven != math.MaxUint32 || len(h.rest) != 1 {
		t.Fatalf("counter %d, %d samples kept", *seven, len(h.rest))
	}
	h.Add(7)
	h.Add(7)
	if *seven != math.MaxUint32 || len(h.rest) != 3 {
		t.Fatalf("a full counter took more: counter %d, %d samples kept", *seven, len(h.rest))
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
	snap := histogramBytes(&h)
	if perSample := 8 * len(samples); len(snap) >= perSample {
		t.Fatalf("snapshot is %d bytes; one word per sample would be %d", len(snap), perSample)
	}
	restored := Histogram{rest: []float64{1, 2}, n: 2, sum: 3} // must be replaced, not added to
	if err := restoreHistogram(&restored, snap); err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, &restored, samples)
	checkAgainstReference(t, &h, samples)
	// Both continue identically and snapshot to the same bytes.
	for _, v := range mixedSamples(10, 500) {
		h.Add(v)
		restored.Add(v)
	}
	if !bytes.Equal(histogramBytes(&h), histogramBytes(&restored)) {
		t.Fatal("restored histogram diverged from the original")
	}
}

// FuzzHistogramRestore feeds Checkpoint arbitrary payloads: a rejection is
// an error, never a panic or an allocation sized by an unchecked length, and
// an accepted histogram is consistent and re-encodes to what it was given.
func FuzzHistogramRestore(f *testing.F) {
	var h Histogram
	for _, v := range mixedSamples(4, 200) {
		h.Add(v)
	}
	good := histogramBytes(&h)
	f.Add(good)
	f.Add(good[:len(good)-3])
	f.Add([]byte{})
	huge := snapcodec.NewEncoder()
	huge.Int(1 << 40)
	f.Add(huge.Bytes())
	f.Fuzz(func(t *testing.T, payload []byte) {
		var h Histogram
		c := snapcodec.NewReader(payload)
		if err := h.Checkpoint(c); err != nil {
			return
		}
		total, pairs := len(h.rest), 0
		h.eachCounter(func(_ int, c uint32) {
			total += int(c)
			pairs++
		})
		// Restore allocates a page only for a counter it fills, and the
		// pages slice reaches the last of them and no further.
		if h.N() != total || len(h.pages) > denseLimit/pageSize || pagesHeld(&h) > pairs ||
			len(h.pages) > 0 && h.pages[len(h.pages)-1] == nil {
			t.Fatalf("accepted N = %d over %d samples in %d counters on %d pages of %d", h.N(), total, pairs, pagesHeld(&h), len(h.pages))
		}
		if consumed := payload[:len(payload)-c.Remaining()]; !bytes.Equal(histogramBytes(&h), consumed) {
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

// pagesHeld is how many counter pages h has allocated.
func pagesHeld(h *Histogram) int {
	n := 0
	for _, pg := range h.pages {
		if pg != nil {
			n++
		}
	}
	return n
}

// counterBytes is what h's counters occupy: its pages and the slice that
// points to them.
func counterBytes(h *Histogram) int {
	return pagesHeld(h)*int(unsafe.Sizeof(counterPage{})) + cap(h.pages)*int(unsafe.Sizeof((*counterPage)(nil)))
}

// checkedPercentiles are the ranks TestHistogramMatchesDense and
// FuzzHistogramAdd compare: both ends, the tails Finish reports, the median.
var checkedPercentiles = []float64{0, 0.1, 1, 50, 95, 99, 99.9, 100}

// histogramBytes is h's checkpoint.
func histogramBytes(h *Histogram) []byte {
	c := snapcodec.NewWriter()
	h.Checkpoint(c)
	return c.Bytes()
}

// restoreHistogram reads a checkpoint, all of it, into h.
func restoreHistogram(h *Histogram, payload []byte) error {
	c := snapcodec.NewReader(payload)
	if err := h.Checkpoint(c); err != nil {
		return err
	}
	return c.Finish()
}

// checkMatchesDense compares every answer and the checkpoint bytes of h and
// d, which were given the same samples, bit for bit.
func checkMatchesDense(t *testing.T, h *Histogram, d *denseHistogram) {
	t.Helper()
	bits := math.Float64bits
	if h.N() != d.N() || bits(h.Sum()) != bits(d.Sum()) || bits(h.Mean()) != bits(d.Mean()) {
		t.Fatalf("N, Sum, Mean = %d, %v, %v; dense %d, %v, %v", h.N(), h.Sum(), h.Mean(), d.N(), d.Sum(), d.Mean())
	}
	for _, p := range checkedPercentiles {
		if got, want := h.Percentile(p), d.Percentile(p); bits(got) != bits(want) {
			t.Fatalf("Percentile(%v) = %v, dense %v over %d samples", p, got, want, d.N())
		}
	}
	if got, want := histogramBytes(h), d.bytes(); !bytes.Equal(got, want) {
		t.Fatalf("checkpoint of %d bytes differs from the dense one's %d", len(got), len(want))
	}
}

// checkCrossRestore restores a paged histogram from d's checkpoint and a
// dense one from h's, and holds the two to each other; it returns them.
func checkCrossRestore(t *testing.T, h *Histogram, d *denseHistogram) (*Histogram, *denseHistogram) {
	t.Helper()
	var h2 Histogram
	var d2 denseHistogram
	if err := restoreHistogram(&h2, d.bytes()); err != nil {
		t.Fatal(err)
	}
	if err := d2.restore(histogramBytes(h)); err != nil {
		t.Fatal(err)
	}
	checkMatchesDense(t, &h2, &d2)
	return &h2, &d2
}

// pageSamples draws from every class Add distinguishes and every place a page
// could be miscounted: both sides of page boundaries, the first and last
// counted values and the first past them, fractions, negatives, −0, NaN, ±Inf,
// and the value extra, whose counter a stream may have brought near its
// ceiling.
func pageSamples(rng *rand.Rand, n int, extra float64) []float64 {
	specials := []float64{0, math.Copysign(0, -1), denseLimit - 1, denseLimit, denseLimit - 0.5,
		pageSize - 1, pageSize, 0.5, -1, math.NaN(), math.Inf(1), math.Inf(-1), extra}
	out := make([]float64, n)
	for i := range out {
		switch rng.Intn(6) {
		case 0:
			out[i] = specials[rng.Intn(len(specials))]
		case 1:
			out[i] = float64(rng.Intn(denseLimit/pageSize)*pageSize + rng.Intn(3) - 1)
		case 2:
			out[i] = float64(rng.Intn(denseLimit)) + rng.Float64()
		case 3:
			out[i] = float64(rng.Intn(denseLimit + denseLimit/4))
		default:
			out[i] = float64(1000 + rng.Intn(4000))
		}
	}
	return out
}

// TestHistogramMatchesDense holds the paged histogram to the dense array it
// replaced, kept in dense_ref_test.go: after every batch of a seeded stream
// the two give the same N, the same bits of Sum, Mean and every checked
// percentile, and the same checkpoint bytes, and each restored from the
// other's checkpoint does too. Every other stream starts from a checkpoint
// whose counter at near is 40 short of its ceiling, so the stream saturates
// it.
func TestHistogramMatchesDense(t *testing.T) {
	const near = 3*pageSize + 5
	for seed := int64(1); seed <= 6; seed++ {
		h, d := new(Histogram), new(denseHistogram)
		if seed%2 == 0 {
			enc := snapcodec.NewEncoder()
			enc.Int(1)
			enc.U32(near)
			enc.U32(math.MaxUint32 - 40)
			enc.Int(0)
			enc.U64(0)
			if err := restoreHistogram(h, enc.Bytes()); err != nil {
				t.Fatal(err)
			}
			if err := d.restore(enc.Bytes()); err != nil {
				t.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(seed))
		for batch := 0; batch < 8; batch++ {
			for _, v := range pageSamples(rng, 1+rng.Intn(3000), near) {
				h.Add(v)
				d.Add(v)
			}
			checkMatchesDense(t, h, d)
			h2, d2 := checkCrossRestore(t, h, d)
			if batch%2 == 1 { // go on from the restored pair
				h, d = h2, d2
			}
		}
		if seed%2 == 0 && h.pages[near>>pageBits][near&(pageSize-1)] != math.MaxUint32 {
			t.Fatalf("seed %d: the counter at %d never saturated", seed, near)
		}
	}
}

// fuzzSample decodes three bytes into a sample: the low three bits of b[0]
// pick a class, the other 21 bits a value in it.
func fuzzSample(b []byte) float64 {
	u := int(b[0])>>3<<16 | int(b[1])<<8 | int(b[2])
	specials := []float64{0, math.Copysign(0, -1), denseLimit - 1, denseLimit, pageSize - 1, pageSize,
		math.NaN(), math.Inf(1), math.Inf(-1)}
	switch b[0] & 7 {
	case 0:
		return specials[u%len(specials)]
	case 1:
		return float64(u) // counted, or up to twice denseLimit
	case 2:
		return float64(u) + 0.5
	case 3:
		return -float64(u)
	default:
		return float64(u & 0x3ff) // the first pages, often repeated
	}
}

// FuzzHistogramAdd feeds both histograms the sample stream a payload decodes
// to and compares them as TestHistogramMatchesDense does.
func FuzzHistogramAdd(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 2, 0x79, 0xff, 0xff, 1, 0x80, 0, 4, 0, 0x7f, 4, 0, 0x80, 4, 0, 0x80})
	f.Add([]byte{0, 0, 6, 0, 0, 1, 2, 0, 3, 3, 0, 9, 0xf9, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, payload []byte) {
		var h Histogram
		var d denseHistogram
		for ; len(payload) >= 3; payload = payload[3:] {
			v := fuzzSample(payload)
			h.Add(v)
			d.Add(v)
		}
		checkMatchesDense(t, &h, &d)
		checkCrossRestore(t, &h, &d)
	})
}

// TestHistogramFootprint pins what the counters of one ycsb-a warm-up run
// cost. The stream has that run's shape (measured at seeds 5 and 77): 1.5 M
// samples, nearly all on fifteen values of 1–5 µs, with about 270 singletons
// scattered between 138 µs and 2²⁰ ns and about 150 samples above that. The
// dense array held 4 MiB of counters for it. A checkpoint holding one
// counter, at the top of the counted range, must restore onto one page.
func TestHistogramFootprint(t *testing.T) {
	hot := []float64{1180, 1240, 1460, 1660, 1720, 1740, 1800, 1940, 2020, 3420, 3480, 3700, 4620, 4680, 4900}
	const samples = 1_500_000
	rng := rand.New(rand.NewSource(1))
	var h Histogram
	for i := 0; i < samples; i++ {
		switch r := rng.Intn(samples); {
		case r < 270:
			h.Add(float64(138_000 + rng.Intn(denseLimit-138_000)))
		case r < 420:
			h.Add(float64(denseLimit + rng.Intn(denseLimit)))
		default:
			h.Add(hot[rng.Intn(len(hot))])
		}
	}
	got := counterBytes(&h)
	t.Logf("%d samples, %d kept one by one: %d pages of %d values and a %d-entry page slice, %d B of counters (dense: %d B)",
		h.N(), len(h.rest), pagesHeld(&h), pageSize, cap(h.pages), got, 4*denseLimit)
	if got > 256<<10 {
		t.Fatalf("%d B of counters, want at most 256 KiB", got)
	}

	enc := snapcodec.NewEncoder()
	enc.Int(1)
	enc.U32(denseLimit - 1)
	enc.U32(1)
	enc.Int(0)
	enc.U64(math.Float64bits(denseLimit - 1))
	var restored Histogram
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := restored.Checkpoint(snapcodec.NewReader(enc.Bytes()))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	allocated := after.TotalAlloc - before.TotalAlloc
	t.Logf("a %d-byte checkpoint restores onto %d page(s), allocating %d B (dense: %d B)", enc.Len(), pagesHeld(&restored), allocated, 4*denseLimit)
	if pagesHeld(&restored) != 1 || allocated > uint64(counterBytes(&restored)) {
		t.Fatalf("restoring one counter allocated %d B on %d pages", allocated, pagesHeld(&restored))
	}
	if restored.Max() != denseLimit-1 || restored.N() != 1 {
		t.Fatalf("restored N %d, Max %v", restored.N(), restored.Max())
	}
}
