package ycsb

import (
	"fmt"
	"math"
	"testing"

	"multiclock/internal/sim"
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
// lazy build and again after Grow has dropped the table.
func TestChoosersMatchGrayFormula(t *testing.T) {
	const draws = 3_000_000
	for _, theta := range []float64{0.5, ZipfianConstant} {
		for _, n := range tableSizes {
			t.Run(fmt.Sprintf("theta=%v/n=%d", theta, n), func(t *testing.T) {
				t.Parallel()
				ref := NewZipfianTheta(n, theta)
				z := NewZipfianTheta(n, theta)
				s := &Scrambled{z: NewZipfianTheta(n, theta), n: n}
				l := &Latest{z: NewZipfianTheta(n, theta), n: n}
				rngs := [4]*sim.RNG{}
				for i := range rngs {
					rngs[i] = sim.NewRNG(uint64(n) ^ math.Float64bits(theta))
				}
				for phase := 0; phase < 2; phase++ {
					items := ref.items
					for i := 0; i < draws; i++ {
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
					}
					if built, want := z.table != nil, int64(draws) >= tableBuildEvals(items) && items <= tableMaxItems; built != want {
						t.Fatalf("phase %d: table built = %v after %d draws of %d items", phase, built, draws, items)
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
			tab := z.buildTable()
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
	tab := z.buildTable()
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
			if tab = z.buildTable(); tab == nil {
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

// TestTableIsBuiltLazily pins the build rule: the formula answers until it
// has served tableBuildEvals draws, Grow starts the count again, and key
// spaces past tableMaxItems never build.
func TestTableIsBuiltLazily(t *testing.T) {
	z := NewZipfian(1000)
	rng := sim.NewRNG(1)
	after := tableBuildEvals(1000)
	for i := int64(1); i < after; i++ {
		z.Next(rng)
	}
	if z.table != nil {
		t.Fatalf("table built before %d draws", after)
	}
	z.Next(rng)
	if z.table == nil {
		t.Fatalf("no table after %d draws", after)
	}
	z.Grow(1001)
	if z.table != nil || z.served != 0 {
		t.Fatal("Grow kept derived state")
	}
	z.Grow(1001) // not a growth: nothing to drop
	for i := int64(1); i < tableBuildEvals(1001); i++ {
		z.Next(rng)
	}
	if z.table != nil {
		t.Fatal("table built early after Grow")
	}

	// Past tableMaxItems there is no draw count that triggers a build.
	if tableBuildEvals(tableMaxItems+1) != 0 || tableBuildEvals(tableMaxItems) == 0 {
		t.Fatal("tableMaxItems is not the boundary")
	}
}

// TestWorkloadDNeverBuilds runs the growing workload long enough that a
// fixed key space would have built: every insert restarts the count.
func TestWorkloadDNeverBuilds(t *testing.T) {
	_, c := newClient(200)
	c.Load()
	r := c.StartRun(WorkloadD, 4*tableBuildEvals(200))
	for r.Step() {
	}
	if z := r.chooser.(*Latest).z; z.table != nil {
		t.Fatalf("workload D built a table over %d items", z.items)
	}
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
		if *got != *want {
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
