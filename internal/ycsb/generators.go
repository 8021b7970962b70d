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
	second float64     // 1 + 0.5^theta: u*zetan below it picks item 1
	tables *tableCache // counts formula draws per key space, keeps the table they paid for
	table  *zipfTable  // tables' table for this key space, once there is one
}

// NewZipfian returns a zipfian chooser over n items with the default
// constant.
func NewZipfian(n int64) *Zipfian { return NewZipfianTheta(n, ZipfianConstant) }

// NewZipfianTheta returns a zipfian chooser with skew theta in (0,1).
func NewZipfianTheta(n int64, theta float64) *Zipfian {
	if n <= 0 {
		panic("ycsb: zipfian over empty key space")
	}
	return newZipfian(n, theta, zetaRange(0, n, theta, 0), new(tableCache))
}

// newZipfian is NewZipfianTheta given zetan = zeta(n, theta), which costs n
// pow calls to compute, and the cache its tables come from.
func newZipfian(n int64, theta, zetan float64, tables *tableCache) *Zipfian {
	z := &Zipfian{items: n, theta: theta, zetan: zetan, countForZeta: n, tables: tables}
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
func (z *Zipfian) Next(rng *sim.RNG) int64 { return z.next(rng, plain) }

// next draws one item and returns what f makes of it. The table answers once
// z.tables has one for this key space and fold; until then the formula does,
// and every draw it answers counts towards building one.
func (z *Zipfian) next(rng *sim.RNG, f fold) int64 {
	m := rng.Uint64() >> (64 - drawBits)
	if z.table == nil && z.items <= tableMaxItems {
		z.table = z.tables.draw(z, f)
	}
	if z.table != nil {
		return z.table.keyOf(m)
	}
	return f.apply(z.keyOf(m), z.items)
}

// keyOf maps one draw to its item by the Gray et al. formula. The float
// result reaches items itself for the top few draws, so it is clamped. The
// compare is unsigned so that a negative k is clamped too: a restored state
// that passed decoding can still Grow to an eta above 1, whose pow is NaN.
func (z *Zipfian) keyOf(m uint64) int64 {
	u := float64(m) / (1 << drawBits)
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.second {
		return 1
	}
	if k := int64(float64(z.items) * pow(z.eta*u-z.eta+1, z.alpha)); uint64(k) < uint64(z.items) {
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
	z.table = nil
}

// Items returns the current key-space size.
func (z *Zipfian) Items() int64 { return z.items }

// Scrambled wraps a zipfian so popularity is spread uniformly over the key
// space (YCSB's ScrambledZipfianGenerator): without it the hottest keys
// would be the first-loaded (and thus DRAM-resident) ones, hiding the
// tiering effect. Its records are the zipfian's items.
type Scrambled struct{ z *Zipfian }

// NewScrambled returns a scrambled-zipfian chooser over n records.
func NewScrambled(n int64) *Scrambled { return &Scrambled{z: NewZipfian(n)} }

// Next implements Chooser.
func (s *Scrambled) Next(rng *sim.RNG) int64 { return s.z.next(rng, scramble) }

// Grow implements Chooser.
func (s *Scrambled) Grow(n int64) { s.z.Grow(n) }

// Latest favors recently inserted records (YCSB SkewedLatestGenerator),
// the distribution of workload D. Its records are the zipfian's items.
type Latest struct{ z *Zipfian }

// NewLatest returns a latest-skewed chooser over n records.
func NewLatest(n int64) *Latest { return &Latest{z: NewZipfian(n)} }

// Next implements Chooser: the most recent record is the most popular.
func (l *Latest) Next(rng *sim.RNG) int64 { return l.z.next(rng, latest) }

// Grow implements Chooser.
func (l *Latest) Grow(n int64) { l.z.Grow(n) }

// fold is what a chooser returns for the zipfian's item k of n: the item
// itself, the k-th newest record, or the record YCSB scrambles it to. A
// table folds it into its answers, so a draw it answers costs no hash.
type fold uint8

const (
	plain    fold = iota // Zipfian
	latest               // Latest
	scramble             // Scrambled
)

func (f fold) apply(k, n int64) int64 {
	switch f {
	case latest:
		return n - 1 - k
	case scramble:
		return int64(fnv64(uint64(k)) % uint64(n))
	}
	return k
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
