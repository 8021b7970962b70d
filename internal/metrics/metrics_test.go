package metrics

import (
	"bytes"
	"strings"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	c.Add(-1)
}

func TestGaugeTracksLastAndMax(t *testing.T) {
	var g Gauge
	for _, v := range []int64{3, 9, 2} {
		g.Set(v)
	}
	if g.Last() != 2 || g.Max() != 9 {
		t.Fatalf("gauge last=%d max=%d, want 2/9", g.Last(), g.Max())
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 8, -5} {
		h.Observe(v)
	}
	if h.N() != 6 || h.Sum() != 14 || h.min != 0 || h.max != 8 {
		t.Fatalf("n=%d sum=%d min=%d max=%d", h.N(), h.Sum(), h.min, h.max)
	}
	// -5 clamps to 0, so bucket 0 (exact zeros) holds two samples; 1 is in
	// bucket 1, {2,3} in bucket 2, 8 in bucket 4.
	want := map[int]int64{0: 2, 1: 1, 2: 2, 4: 1}
	for k, c := range h.counts {
		if c != want[k] {
			t.Fatalf("bucket %d = %d, want %d", k, c, want[k])
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile != 0")
	}
	for i := 0; i < 100; i++ {
		h.Observe(100) // bucket 7: [64,127]
	}
	h.Observe(100000) // lone outlier
	// The p50 interpolates inside bucket 7 and clamps to the observed min,
	// which here recovers the exact sample value.
	if q := h.Quantile(0.5); q != 100 {
		t.Fatalf("p50 = %d, want 100 (interpolated, min-clamped)", q)
	}
	if q := h.Quantile(1); q != h.max {
		t.Fatalf("p100 = %d, want max %d", q, h.max)
	}
	if h.Quantile(0.5) > h.Quantile(0.999) {
		t.Fatal("quantiles not monotone")
	}
}

// TestHistogramBucketBoundaries pins the log2 bucketing rule at every edge:
// zero, one, and each power of two with its neighbours. Bucket k holds
// [2^(k-1), 2^k-1], so 2^k-1 is the last value of bucket k and 2^k the first
// of bucket k+1 — the exported LE bound must match exactly.
func TestHistogramBucketBoundaries(t *testing.T) {
	bucketOf := func(v int64) int {
		var h Histogram
		h.Observe(v)
		for k, c := range h.counts {
			if c != 0 {
				return k
			}
		}
		t.Fatalf("sample %d landed in no bucket", v)
		return -1
	}
	type edge struct {
		v      int64
		bucket int
	}
	cases := []edge{{0, 0}, {1, 1}}
	for k := uint(1); k <= 62; k++ {
		p := int64(1) << k
		cases = append(cases,
			edge{p - 1, int(k)},     // last value of bucket k
			edge{p, int(k) + 1},     // first value of bucket k+1
			edge{p + 1, int(k) + 1}, // still bucket k+1
		)
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.bucket {
			t.Fatalf("Observe(%d) landed in bucket %d, want %d", c.v, got, c.bucket)
		}
		// The bucket's exported upper bound must cover the value…
		if ub := bucketUpper(c.bucket); ub < c.v {
			t.Fatalf("bucket %d upper bound %d < sample %d", c.bucket, ub, c.v)
		}
		// …and the previous bucket's must not.
		if c.bucket > 0 {
			if lb := bucketUpper(c.bucket - 1); lb >= c.v {
				t.Fatalf("bucket %d lower edge: previous bound %d >= sample %d", c.bucket, lb, c.v)
			}
		}
	}
}

func TestBucketUpperCaps(t *testing.T) {
	if bucketUpper(0) != 0 || bucketUpper(1) != 1 || bucketUpper(3) != 7 {
		t.Fatal("small bucket bounds")
	}
	if bucketUpper(64) != int64(^uint64(0)>>1) {
		t.Fatal("top bucket must cap at the int64 ceiling")
	}
}

func TestEventTraceRing(t *testing.T) {
	tr := newEventTrace(3)
	for i := 0; i < 5; i++ {
		tr.Add(Event{Pages: i})
	}
	if tr.Len() != 3 || tr.Dropped() != 2 || tr.Capacity() != 3 {
		t.Fatalf("len=%d dropped=%d cap=%d", tr.Len(), tr.Dropped(), tr.Capacity())
	}
	evs := tr.Events()
	for i, want := range []int{2, 3, 4} {
		if evs[i].Pages != want {
			t.Fatalf("event %d = %d, want %d (oldest-first)", i, evs[i].Pages, want)
		}
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry(0)
	if r.Counter("x") != r.Counter("x") || r.Histogram("h") != r.Histogram("h") {
		t.Fatal("same name must resolve to the same instrument")
	}
	if r.Events() != nil {
		t.Fatal("traceEvents=0 must disable the event ring")
	}
}

// sampleRun builds a schema-complete run through the real collector.
func sampleRun(label string, traceEvents int) RunExport {
	c := NewCollector(NewRegistry(traceEvents))
	c.Migration(1, 0, 1, 2000, 10)
	c.DaemonPass("kpromoted", 300, 20)
	c.QueueDepth(4, 20)
	c.AccessLatency(0, false, 100, 30)
	return c.Run(label)
}

func TestExportJSONDeterministicAndValid(t *testing.T) {
	b1, err := ExportJSON(sampleRun("b", 8), sampleRun("a", 8))
	if err != nil {
		t.Fatal(err)
	}
	b2, err := ExportJSON(sampleRun("a", 8), sampleRun("b", 8))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("export bytes depend on run order")
	}
	ex, err := ReadExport(b1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Runs) != 2 || ex.Runs[0].Label != "a" {
		t.Fatalf("runs = %+v", ex.Runs)
	}
	if ex.Runs[0].Trace == nil || len(ex.Runs[0].Trace.Events) != 2 {
		t.Fatal("trace events missing from export")
	}
}

func TestValidateRejectsCorruptDocuments(t *testing.T) {
	base := func() *Export {
		return &Export{Version: ExportVersion, Runs: []RunExport{sampleRun("a", 0)}}
	}
	cases := []struct {
		name  string
		wreck func(*Export)
	}{
		{"bad version", func(ex *Export) { ex.Version = 99 }},
		{"empty label", func(ex *Export) { ex.Runs[0].Label = "" }},
		{"bucket mismatch", func(ex *Export) { ex.Runs[0].Histograms[0].N += 3 }},
		{"missing required histogram", func(ex *Export) { ex.Runs[0].Histograms = ex.Runs[0].Histograms[:1] }},
		{"duplicate run", func(ex *Export) { ex.Runs = append(ex.Runs, ex.Runs[0]) }},
	}
	for _, tc := range cases {
		ex := base()
		tc.wreck(ex)
		if err := ex.Validate(); err == nil {
			t.Fatalf("%s: validation passed", tc.name)
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("pristine document failed validation: %v", err)
	}
}

func TestExportCSV(t *testing.T) {
	csv := ExportCSV(sampleRun("a", 0))
	if !strings.HasPrefix(csv, "label,histogram,le,count,n,sum\n") {
		t.Fatalf("csv header: %q", csv)
	}
	if !strings.Contains(csv, "a,"+HistMigrationLatency+",") {
		t.Fatalf("csv missing migration histogram:\n%s", csv)
	}
}

func TestPoolRejectsDuplicateLabels(t *testing.T) {
	p := NewPool(0)
	p.Collector("x")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate label did not panic")
		}
	}()
	p.Collector("x")
}

func TestPoolExportSortsLabels(t *testing.T) {
	p := NewPool(0)
	for _, l := range []string{"z", "a", "m"} {
		c := p.Collector(l)
		c.Migration(1, 0, 1, 100, 1)
		c.DaemonPass("d", 10, 2)
	}
	runs := p.Runs()
	if len(runs) != 3 || runs[0].Label != "a" || runs[2].Label != "z" {
		t.Fatalf("pool runs out of order: %+v", runs)
	}
	if _, err := p.ExportJSON(); err != nil {
		t.Fatal(err)
	}
	if p.Len() != 3 {
		t.Fatalf("pool len = %d", p.Len())
	}
}
