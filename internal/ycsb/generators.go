// Package ycsb generates the Yahoo! Cloud Serving Benchmark workloads
// (§V-B): the standard key-choice distributions (uniform, zipfian,
// scrambled zipfian, latest), the core workloads A–F plus the paper's
// custom 100%-write workload W, a load phase, and the prescribed execution
// sequence Load, A, B, C, F, W, D.
package ycsb

import (
	"math"

	"multiclock/internal/sim"
)

// ZipfianConstant is YCSB's default skew parameter.
const ZipfianConstant = 0.99

// Chooser picks record indices in [0, count) with some popularity
// distribution. Count may grow over the run (inserts).
type Chooser interface {
	// Next returns a record index in [0, Count()).
	Next(rng *sim.RNG) int64
	// Grow informs the chooser the key space expanded to n records.
	Grow(n int64)
}

// Uniform chooses keys uniformly.
type Uniform struct{ n int64 }

// NewUniform returns a uniform chooser over n records.
func NewUniform(n int64) *Uniform { return &Uniform{n: n} }

// Next implements Chooser.
func (u *Uniform) Next(rng *sim.RNG) int64 { return rng.Int63n(u.n) }

// Grow implements Chooser.
func (u *Uniform) Grow(n int64) {
	if n > u.n {
		u.n = n
	}
}

// Zipfian is the Gray et al. incremental zipfian generator used by YCSB:
// item 0 is the most popular. It supports a growing item count with an
// incrementally maintained zeta.
type Zipfian struct {
	items                            int64
	theta, alpha, zetan, eta, zeta2t float64
	countForZeta                     int64

	// Derived from the fields above, never serialised.
	second float64    // 1 + 0.5^theta: u*zetan below it picks item 1
	served int64      // draws the formula answered since construction or Grow
	table  *zipfTable // exact inverse of keyOf, built once served has paid for it
}

// NewZipfian returns a zipfian chooser over n items with the default
// constant.
func NewZipfian(n int64) *Zipfian { return NewZipfianTheta(n, ZipfianConstant) }

// NewZipfianTheta returns a zipfian chooser with skew theta in (0,1).
func NewZipfianTheta(n int64, theta float64) *Zipfian {
	if n <= 0 {
		panic("ycsb: zipfian over empty key space")
	}
	return newZipfian(n, theta, zetaRange(0, n, theta, 0))
}

// newZipfian is NewZipfianTheta given zetan = zeta(n, theta), which costs n
// pow calls to compute.
func newZipfian(n int64, theta, zetan float64) *Zipfian {
	z := &Zipfian{items: n, theta: theta, zetan: zetan, countForZeta: n}
	z.zeta2t = zetaRange(0, 2, theta, 0)
	z.alpha = 1 / (1 - theta)
	z.eta = z.etaVal()
	z.second = 1 + pow(0.5, theta)
	return z
}

func (z *Zipfian) etaVal() float64 {
	return (1 - pow(2/float64(z.items), 1-z.theta)) / (1 - z.zeta2t/z.zetan)
}

// zetaRange computes zeta(en) incrementally from a prior value at st.
func zetaRange(st, en int64, theta, initial float64) float64 {
	sum := initial
	for i := st; i < en; i++ {
		sum += 1 / pow(float64(i+1), theta)
	}
	return sum
}

func pow(x, y float64) float64 { return math.Pow(x, y) }

// drawBits is the width of one draw: rng.Uint64()>>11, the integer whose
// quotient by 2^53 is RNG.Float64.
const drawBits = 53

// Next implements Chooser following the YCSB ZipfianGenerator algorithm.
func (z *Zipfian) Next(rng *sim.RNG) int64 {
	m := rng.Uint64() >> (64 - drawBits)
	if z.table != nil {
		return z.table.keyOf(m)
	}
	if z.served++; z.served == tableBuildEvals(z.items) {
		z.table = z.buildTable()
	}
	return z.keyOf(m)
}

// keyOf maps one draw to its item by the Gray et al. formula. The float
// result reaches items itself for the top few draws, so it is clamped.
func (z *Zipfian) keyOf(m uint64) int64 {
	u := float64(m) / (1 << drawBits)
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.second {
		return 1
	}
	if k := int64(float64(z.items) * pow(z.eta*u-z.eta+1, z.alpha)); k < z.items {
		return k
	}
	return z.items - 1
}

// Grow implements Chooser, extending zeta incrementally like YCSB's
// allowitemcountdecrease=false path.
func (z *Zipfian) Grow(n int64) {
	if n <= z.items {
		return
	}
	z.zetan = zetaRange(z.countForZeta, n, z.theta, z.zetan)
	z.countForZeta = n
	z.items = n
	z.eta = z.etaVal()
	z.served, z.table = 0, nil
}

// Items returns the current key-space size.
func (z *Zipfian) Items() int64 { return z.items }

// Scrambled wraps a zipfian so popularity is spread uniformly over the key
// space (YCSB's ScrambledZipfianGenerator): without it the hottest keys
// would be the first-loaded (and thus DRAM-resident) ones, hiding the
// tiering effect.
type Scrambled struct {
	z *Zipfian
	n int64
}

// NewScrambled returns a scrambled-zipfian chooser over n records.
func NewScrambled(n int64) *Scrambled {
	return &Scrambled{z: NewZipfian(n), n: n}
}

// Next implements Chooser.
func (s *Scrambled) Next(rng *sim.RNG) int64 {
	v := s.z.Next(rng)
	return int64(fnv64(uint64(v)) % uint64(s.n))
}

// Grow implements Chooser.
func (s *Scrambled) Grow(n int64) {
	if n > s.n {
		s.n = n
		s.z.Grow(n)
	}
}

// Latest favors recently inserted records (YCSB SkewedLatestGenerator),
// the distribution of workload D.
type Latest struct {
	z *Zipfian
	n int64
}

// NewLatest returns a latest-skewed chooser over n records.
func NewLatest(n int64) *Latest {
	return &Latest{z: NewZipfian(n), n: n}
}

// Next implements Chooser: the most recent record is the most popular.
func (l *Latest) Next(rng *sim.RNG) int64 {
	off := l.z.Next(rng)
	return l.n - 1 - off
}

// Grow implements Chooser.
func (l *Latest) Grow(n int64) {
	if n > l.n {
		l.n = n
		l.z.Grow(n)
	}
}

// fnv64 is the FNV-1a hash YCSB uses for key scrambling.
func fnv64(v uint64) uint64 {
	const (
		offset = 0xCBF29CE484222325
		prime  = 0x100000001B3
	)
	h := uint64(offset)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= prime
		v >>= 8
	}
	return h
}
