package ycsb

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"multiclock/internal/sim"
	"multiclock/internal/snapcodec"
)

// grayNext is the generator as it was before the table: two pow calls a
// draw, the float result returned unclamped. Every other path is held to it.
func grayNext(z *Zipfian, rng *sim.RNG) int64 {
	u := rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+pow(0.5, z.theta) {
		return 1
	}
	return int64(float64(z.items) * pow(z.eta*u-z.eta+1, z.alpha))
}

var tableSizes = []int64{1, 2, 3, 10, 1000, 24_000, 1 << 20}

// TestChoosersMatchGrayFormula draws from Zipfian, Scrambled and Latest in
// lockstep with the reference on identically seeded streams, across the
// lazy build and again after Grow has dropped the table. Halfway through each
// phase Scrambled hands over to an heir on its cache, which must answer from
// the table it inherits (if one was built) from its first draw on.
func TestChoosersMatchGrayFormula(t *testing.T) {
	const draws = 3_000_000
	for _, theta := range []float64{0.5, ZipfianConstant} {
		for _, n := range tableSizes {
			t.Run(fmt.Sprintf("theta=%v/n=%d", theta, n), func(t *testing.T) {
				t.Parallel()
				ref := NewZipfianTheta(n, theta)
				z := NewZipfianTheta(n, theta)
				s := &Scrambled{z: NewZipfianTheta(n, theta)}
				l := &Latest{z: NewZipfianTheta(n, theta)}
				rngs := [4]*sim.RNG{}
				for i := range rngs {
					rngs[i] = sim.NewRNG(uint64(n) ^ math.Float64bits(theta))
				}
				for phase := 0; phase < 2; phase++ {
					items := ref.items
					built := int64(draws/2) >= tableBuildEvals(items) && items <= tableMaxItems
					for i := 0; i < draws; i++ {
						var inherited *zipfTable
						if i == draws/2 {
							if (s.z.table != nil) != built {
								t.Fatalf("phase %d: Scrambled table built = %v after %d draws of %d items", phase, !built, i, items)
							}
							inherited = s.z.table
							heir := *s.z
							heir.table = nil
							s = &Scrambled{z: &heir}
						}
						want := min(grayNext(ref, rngs[0]), items-1)
						if got := z.Next(rngs[1]); got != want {
							t.Fatalf("phase %d draw %d: Zipfian %d, formula %d", phase, i, got, want)
						}
						if got, w := s.Next(rngs[2]), int64(fnv64(uint64(want))%uint64(items)); got != w {
							t.Fatalf("phase %d draw %d: Scrambled %d, formula %d", phase, i, got, w)
						}
						if got := l.Next(rngs[3]); got != items-1-want {
							t.Fatalf("phase %d draw %d: Latest %d, formula %d", phase, i, got, items-1-want)
						}
						if inherited != nil && s.z.table != inherited {
							t.Fatalf("phase %d: the heir's first draw did not come from the inherited table", phase)
						}
					}
					for _, ch := range []*Zipfian{z, s.z, l.z} {
						if (ch.table != nil) != built {
							t.Fatalf("phase %d: table built = %v after %d draws of %d items", phase, !built, draws, items)
						}
					}
					grown := items + items/3 + 1
					for _, ch := range []Chooser{ref, z, s, l} {
						ch.Grow(grown)
					}
					if z.table != nil || s.z.table != nil || l.z.table != nil {
						t.Fatal("Grow kept a table built for the smaller key space")
					}
				}
			})
		}
	}
}

// TestTableThresholds checks the table where its one assumption could fail:
// a dense window either side of every threshold must read as the formula
// does, and the standard key spaces must pass the build's own verification.
func TestTableThresholds(t *testing.T) {
	const window = 48
	for _, theta := range []float64{0.5, ZipfianConstant} {
		for _, n := range []int64{1, 2, 3, 10, 1000, 24_000} {
			z := NewZipfianTheta(n, theta)
			tab := z.buildTable(plain)
			if tab == nil {
				t.Fatalf("theta=%v n=%d: table failed verification", theta, n)
			}
			if tab.first[0] != 0 || tab.first[n] != 1<<drawBits {
				t.Fatalf("theta=%v n=%d: first spans [%d, %d]", theta, n, tab.first[0], tab.first[n])
			}
			for k := int64(1); k <= n; k++ {
				th := tab.first[k]
				if th < tab.first[k-1] {
					t.Fatalf("theta=%v n=%d: first[%d] = %d below first[%d] = %d", theta, n, k, th, k-1, tab.first[k-1])
				}
				for m := th - min(th, window); m < th+window && m < 1<<drawBits; m++ {
					want := z.keyOf(m)
					if got := tab.keyOf(m); got != want {
						t.Fatalf("theta=%v n=%d: draw %d (threshold %d of item %d): table %d, formula %d", theta, n, m, th, k, got, want)
					}
					if (m >= th) != (want >= k) {
						t.Fatalf("theta=%v n=%d: draw %d gives item %d across threshold %d of item %d", theta, n, m, want, th, k)
					}
				}
			}
			// The cell boundaries are the other place an answer changes hands.
			for c := range tab.guide {
				for _, m := range []uint64{uint64(c) << tab.shift, uint64(c+1)<<tab.shift - 1} {
					if got, want := tab.keyOf(m), z.keyOf(m); got != want {
						t.Fatalf("theta=%v n=%d: draw %d at the edge of cell %d: table %d, formula %d", theta, n, m, c, got, want)
					}
				}
			}
		}
	}
}

// TestTableRejectedWhereItDisagrees moves one threshold off its true place,
// as a non-monotone pow would, and expects verification to refuse the table,
// so that the chooser keeps answering from the formula.
func TestTableRejectedWhereItDisagrees(t *testing.T) {
	z := NewZipfian(24_000)
	tab := z.buildTable(plain)
	for _, k := range []int64{1, 2, 77, 5000, 23_999} {
		for _, off := range []uint64{1, 3, ^uint64(0)} { // ^0 is -1
			tab.first[k] += off
			if tab.verify(z) {
				t.Fatalf("verification passed with first[%d] off by %d", k, int64(off))
			}
			tab.first[k] -= off
		}
	}
	if !tab.verify(z) {
		t.Fatal("verification fails on the restored table")
	}
}

// TestExtremeDrawsStayInRange is the regression test for the chooser
// contract: the unclamped formula returns Items() for the very top draws,
// which Latest turned into key -1.
func TestExtremeDrawsStayInRange(t *testing.T) {
	const top = uint64(1)<<drawBits - 1
	for _, n := range tableSizes {
		z := NewZipfian(n)
		var tab *zipfTable
		if n <= tableMaxItems {
			if tab = z.buildTable(plain); tab == nil {
				t.Fatalf("n=%d: table failed verification", n)
			}
		}
		for d := uint64(0); d < 4096; d++ {
			for _, m := range []uint64{d, top - d} {
				k := z.keyOf(m)
				if k < 0 || k >= n {
					t.Fatalf("n=%d: draw %d maps to item %d", n, m, k)
				}
				if tab != nil && tab.keyOf(m) != k {
					t.Fatalf("n=%d: draw %d: table %d, formula %d", n, m, tab.keyOf(m), k)
				}
			}
		}
		if z.keyOf(0) != 0 || z.keyOf(top) != n-1 {
			t.Fatalf("n=%d: draws 0 and %d map to %d and %d", n, top, z.keyOf(0), z.keyOf(top))
		}
	}
	// The bug itself, for the record: the raw formula overshoots.
	for _, n := range []int64{10, 24_000, 1 << 20} {
		z := NewZipfian(n)
		u := float64(top) / (1 << drawBits)
		if raw := int64(float64(n) * pow(z.eta*u-z.eta+1, z.alpha)); raw != n {
			t.Errorf("n=%d: raw formula at the top draw gives %d; the clamp may no longer be needed", n, raw)
		}
	}
}

// TestTableIsBuiltLazily pins the build rule: a key space's formula answers
// until its cache has counted tableBuildEvals draws over it, whichever of the
// client's choosers made them; a chooser made after that answers from its
// first draw; Grow moves to a key space whose count starts again; and key
// spaces past tableMaxItems never build.
func TestTableIsBuiltLazily(t *testing.T) {
	_, c := newClient(1000)
	c.Load()
	rng := sim.NewRNG(1)
	after := tableBuildEvals(1000)
	zs := []*Zipfian{c.zipfian(), c.zipfian(), c.zipfian()}
	for i := int64(1); i < after; i++ {
		zs[i%3].next(rng, scramble)
	}
	if c.tables.table != nil || zs[0].table != nil || zs[1].table != nil || zs[2].table != nil {
		t.Fatalf("table built before %d draws", after)
	}
	zs[0].next(rng, scramble)
	if c.tables.table == nil || zs[0].table != c.tables.table {
		t.Fatalf("no table after %d draws", after)
	}
	z := c.zipfian()
	z.next(rng, scramble)
	if z.table != c.tables.table {
		t.Fatal("a chooser made after the build did not answer its first draw from the table")
	}
	z.Grow(1001)
	if z.table != nil {
		t.Fatal("Grow kept the table")
	}
	z.Grow(1001) // not a growth: nothing to drop
	for i := int64(1); i < tableBuildEvals(1001); i++ {
		z.next(rng, scramble)
	}
	if z.table != nil || c.tables.table != nil || c.tables.served != tableBuildEvals(1001)-1 {
		t.Fatalf("after Grow: table %v, %d draws counted, want none and %d", z.table != nil, c.tables.served, tableBuildEvals(1001)-1)
	}

	// Past tableMaxItems the formula answers without counting.
	for _, n := range []int64{tableMaxItems, tableMaxItems + 1} {
		z := NewZipfian(n)
		z.Next(rng)
		if counted := z.tables.served == 1; counted != (n <= tableMaxItems) {
			t.Fatalf("%d items: draw counted = %v", n, counted)
		}
	}
}

// TestStartRunBuildsForALongRun pins when StartRun builds the table ahead of
// the draws: a scrambled run of at least tableBuildEvals ops over a key space
// the table serves. A shorter run, workload D (inserts grow the key space)
// and workload E (uniform) keep the lazy count. Either way the keys are the
// formula's.
func TestStartRunBuildsForALongRun(t *testing.T) {
	const records = 1000
	evals := tableBuildEvals(records)
	for _, tc := range []struct {
		w     Workload
		ops   int64
		built bool
	}{
		{WorkloadA, evals, true},
		{WorkloadW, 1 << 40, true},
		{WorkloadA, evals - 1, false},
		{WorkloadD, 1 << 40, false},
		{WorkloadE, 1 << 40, false},
	} {
		_, c := newClient(records)
		c.Load()
		r := c.StartRun(tc.w, tc.ops)
		if built := c.tables.table != nil; built != tc.built {
			t.Fatalf("StartRun(%s, %d): table built = %v", tc.w.Name, tc.ops, built)
		}
		if !tc.built {
			continue
		}
		if c.tables.served != evals {
			t.Fatalf("StartRun(%s, %d): %d draws counted, want %d paid", tc.w.Name, tc.ops, c.tables.served, evals)
		}
		ref := NewZipfian(records)
		ref.tables = new(tableCache)
		rngs := [2]*sim.RNG{sim.NewRNG(4), sim.NewRNG(4)}
		for i := int64(0); i < evals+1000; i++ {
			if got, want := r.chooser.Next(rngs[0]), scramble.apply(ref.keyOf(rngs[1].Uint64()>>(64-drawBits)), records); got != want {
				t.Fatalf("StartRun(%s, %d) draw %d: %d, formula %d", tc.w.Name, tc.ops, i, got, want)
			}
		}
		if r.chooser.(*Scrambled).z.table != c.tables.table || c.tables.served != evals {
			t.Fatal("the run drew from the formula, or counted draws, beside a built table")
		}
		c.StartRun(tc.w, tc.ops)
		if c.tables.served != evals {
			t.Fatal("a second long run paid again")
		}
	}
	// Past tableMaxItems a long run builds nothing. (A client that has
	// loaded that many, without a store to hold them.)
	_, c := newClient(10)
	c.loaded, c.records = true, tableMaxItems+1
	c.StartRun(WorkloadA, 1<<40)
	if c.tables.table != nil || c.tables.served != 0 {
		t.Fatalf("%d records: table built, %d draws counted", c.records, c.tables.served)
	}
}

// TestWorkloadDNeverBuilds runs the growing workload long enough that a
// fixed key space would have built: every insert moves the client's count to
// a new key space.
func TestWorkloadDNeverBuilds(t *testing.T) {
	_, c := newClient(200)
	c.Load()
	r := c.StartRun(WorkloadD, 4*tableBuildEvals(200))
	for r.Step() {
	}
	if z := r.chooser.(*Latest).z; z.table != nil || c.tables.table != nil {
		t.Fatalf("workload D built a table over %d items", z.items)
	}
	if c.tables.served >= tableBuildEvals(c.records) {
		t.Fatalf("the client counted %d draws over one of D's key spaces", c.tables.served)
	}
}

// zipfianBytes is z's serialised state.
func zipfianBytes(z *Zipfian) []byte {
	c := snapcodec.NewWriter()
	z.checkpoint(c)
	return c.Bytes()
}

// TestClientReusesZeta checks the memo is invisible: a chooser made from the
// remembered zeta has the bits of one that recomputed it, also after the
// record count moved.
func TestClientReusesZeta(t *testing.T) {
	_, c := newClient(500)
	c.Load()
	same := func() {
		t.Helper()
		got := c.chooserFor(WorkloadA).(*Scrambled).z
		want := NewZipfian(c.records)
		if !bytes.Equal(zipfianBytes(got), zipfianBytes(want)) || got.second != want.second {
			t.Fatalf("memoised chooser %+v, fresh %+v", *got, *want)
		}
	}
	same()
	same()
	c.Run(WorkloadD, 2000)
	if c.records == 500 {
		t.Fatal("workload D inserted nothing")
	}
	same()
}

// TestClientReusesTable pins the client as the table's owner: the paper
// sequence builds one table, when workload A starts, and every run answers
// from it from its first draw; a zipfian whose zetan or eta differs in the
// last bit, as a zeta accumulated by Grow in another order could, gets none;
// and a run restored mid-way onto a client that has yet to pay draws the keys
// of the run that was never checkpointed.
func TestClientReusesTable(t *testing.T) {
	const records = 500
	ops := 2 * tableBuildEvals(records) // every A/B/C/F/W op draws a key
	_, c := newClient(records)
	c.Load()
	var built *zipfTable
	for _, w := range PaperSequence {
		r := c.StartRun(w, ops)
		if w.Dist != DistZipfian {
			continue // D, last: its inserts grow the key space
		}
		if built == nil {
			built = c.tables.table
		}
		r.Step()
		if built == nil || r.d.z.table != built {
			t.Fatalf("workload %s: first draw not from the table workload A's start built", w.Name)
		}
		for r.Step() {
		}
		if c.tables.table != built {
			t.Fatalf("workload %s: client table %p, want %p built once", w.Name, c.tables.table, built)
		}
	}

	for _, nudge := range []func(z *Zipfian){
		func(z *Zipfian) { z.zetan = math.Nextafter(z.zetan, 2*z.zetan) },
		func(z *Zipfian) { z.eta = math.Nextafter(z.eta, 0) },
	} {
		_, c := newClient(records)
		c.Load()
		c.Run(WorkloadA, ops)
		if c.tables.table == nil {
			t.Fatal("no table to borrow")
		}
		odd, ref := c.zipfian(), c.zipfian()
		nudge(odd)
		nudge(ref)
		ref.tables = new(tableCache)
		rngs := [2]*sim.RNG{sim.NewRNG(9), sim.NewRNG(9)}
		for i := 0; i < 1000; i++ {
			if got, want := odd.next(rngs[0], scramble), scramble.apply(ref.keyOf(rngs[1].Uint64()>>(64-drawBits)), records); got != want {
				t.Fatalf("draw %d: %d, its own formula %d", i, got, want)
			}
		}
		if odd.table != nil {
			t.Fatal("a zipfian one bit away borrowed the table")
		}
	}

	_, c1 := newClient(records)
	c1.Load()
	r1 := c1.StartRun(WorkloadA, 1<<40)
	for i := 0; i < 100; i++ {
		r1.Step()
	}
	w := snapcodec.NewWriter()
	c1.Checkpoint(w)
	if err := r1.Checkpoint(w); err != nil {
		t.Fatal(err)
	}
	_, c2 := newClient(records)
	rd := snapcodec.NewReader(w.Bytes())
	if err := c2.Checkpoint(rd); err != nil {
		t.Fatal(err)
	}
	r2, err := c2.RestoreRun(rd)
	if err != nil {
		t.Fatal(err)
	}
	if r1.d.z.table == nil || r2.chooser.(*Scrambled).z.table != nil {
		t.Fatal("want the checkpointed run on a table and the restored one on the formula")
	}
	for i := int64(0); i < 2*tableBuildEvals(records); i++ {
		if a, b := r1.chooser.Next(c1.rng), r2.chooser.Next(c2.rng); a != b {
			t.Fatalf("draw %d after restore: %d, never checkpointed %d", i, b, a)
		}
	}
	if r2.chooser.(*Scrambled).z.table == nil {
		t.Fatal("the restored client never built its own table")
	}
}
