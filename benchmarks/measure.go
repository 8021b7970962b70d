package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"multiclock/internal/mem"
	"multiclock/internal/sim"
)

// since is the host time elapsed since t, in seconds.
func since(t time.Time) float64 { return time.Since(t).Seconds() }

// rep is one repetition of a workload: a fresh machine, timed set-up, then
// the timed measured region. Every simulated quantity is a delta over the
// measured region, so warm-up belongs to set-up.
type rep struct {
	inst *instance

	setupS   float64
	measureS float64
	// batchS is the host time of each batch; every run of one seed does
	// the same work in batch i, which is what quiet and relative rely on.
	batchS timing

	// accesses counts simulated line accesses, cache-filtered included
	// (mcbench's "pages/sec" numerator).
	accesses  int64
	simNS     int64
	fastRatio float64
	digest    uint64
	// delta holds the mem.Counters movement by Counters.Each name.
	delta map[string]int64

	mallocs    uint64
	allocBytes uint64
	// MULTI-CLOCK's own counters over the region (zero on other policies).
	promoteAttempts, promoteFails int64

	ops   int64
	check checks
	layer map[string]float64
}

// session is one run of a workload in progress: begin builds it and marks
// the start of the measured region, step runs one batch, end reads the
// counters and checks the outputs. Several sessions can be stepped in
// lockstep.
type session struct {
	w    workload
	inst *instance
	tr   *tracer
	r    rep

	before mem.Counters
	clock0 sim.Time
}

// begin builds w and opens its measured region. With tr non-nil the region
// runs traced: tr brackets set-up and every batch and observes the machine
// from outside.
func begin(w workload, sc scale, seed uint64, o buildOpts, tr *tracer) *session {
	t0 := time.Now()
	inst := w.build(sc, seed, o)
	s := &session{w: w, inst: inst, tr: tr, r: rep{inst: inst, setupS: since(t0)}}
	// The heap state a set-up leaves behind is not the measured region's
	// business; testing.B collects before timing for the same reason.
	runtime.GC()
	s.before = inst.m.Mem.Counters.Clone()
	s.clock0 = inst.m.Clock.Now()
	if mc := multiclockOf(inst.policy); mc != nil {
		s.r.promoteAttempts, s.r.promoteFails = -mc.PromoteAttempts, -mc.PromoteFails
	}
	if tr != nil {
		tr.start(inst, t0)
	}
	s.r.batchS = make(timing, inst.batches)
	return s
}

// step runs batch i, timing it and counting its heap allocations (other
// sessions may allocate between this one's batches).
func (s *session) step(i int) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if s.tr != nil {
		s.tr.beginBatch(i)
	}
	b0 := time.Now()
	s.inst.runBatch(i)
	s.r.batchS[i] = since(b0)
	if s.tr != nil {
		s.tr.endBatch()
	}
	runtime.ReadMemStats(&ms1)
	s.r.mallocs += ms1.Mallocs - ms0.Mallocs
	s.r.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
}

// end closes the measured region, checks the outputs and stops the
// machine's daemons.
func (s *session) end() rep {
	r, inst, m := s.r, s.inst, s.inst.m
	if s.tr != nil {
		s.tr.finish()
	}
	if mc := multiclockOf(inst.policy); mc != nil {
		r.promoteAttempts += mc.PromoteAttempts
		r.promoteFails += mc.PromoteFails
	}
	r.measureS = r.batchS.total()

	before, after := &s.before, &m.Mem.Counters
	r.simNS = int64(m.Clock.Now() - s.clock0)
	r.delta, r.digest = counterDelta(before, after, int64(m.Clock.Now()))
	r.accesses = after.TotalAccesses() + after.CacheFiltered - before.TotalAccesses() - before.CacheFiltered
	r.fastRatio = ratio(float64(after.Reads[0]+after.Writes[0]-before.Reads[0]-before.Writes[0]),
		float64(after.TotalAccesses()-before.TotalAccesses()))
	r.layer = inst.layer()
	r.ops = int64(inst.batches) * inst.opsPerBatch

	// Output checks come last: they may touch the machine.
	r.check = inst.check()
	err := m.CheckInvariants()
	r.check.expect(err == nil, "%s: CheckInvariants: %v", s.w.name, err)
	inst.stop()
	return r
}

// runOnce is one session from begin to end.
func runOnce(w workload, sc scale, seed uint64, o buildOpts) rep {
	s := begin(w, sc, seed, o, nil)
	for i := range s.r.batchS {
		s.step(i)
	}
	return s.end()
}

// lockstep runs batch i of every participant before batch i+1 of any. The
// host drifts by tens of percent within seconds, so two runs are only
// comparable batch by batch, each pair timed within a fraction of a second:
// relative(a, b) of two lockstepped runs cancels the drift. A participant
// with fewer batches (a replayed prefix) simply stops early.
func lockstep(batches int, steps ...func(i int)) {
	for i := 0; i < batches; i++ {
		for _, step := range steps {
			step(i)
		}
	}
}

// counterDelta returns after-before by counter name and the fnv-1a digest
// of those deltas plus the clock. A change meant only to speed up the
// simulator must leave the digest unchanged.
func counterDelta(before, after *mem.Counters, clock int64) (map[string]int64, uint64) {
	base := map[string]int64{}
	before.Each(func(name string, v int64) { base[name] = v })
	delta := map[string]int64{}
	h := fnv.New64a()
	after.Each(func(name string, v int64) {
		d := v - base[name]
		delta[name] = d
		fmt.Fprintf(h, "%s=%d;", name, d)
	})
	fmt.Fprintf(h, "clock=%d", clock)
	return delta, h.Sum64()
}

// sumPrefix totals the per-tier counters of one family ("allocs_").
func sumPrefix(delta map[string]int64, prefix string) int64 {
	var t int64
	for name, v := range delta {
		if strings.HasPrefix(name, prefix) {
			t += v
		}
	}
	return t
}

// resetPeakRSS starts a new high-water mark for the workload about to run,
// so that in a suite run each workload reports its own peak: it returns
// what earlier workloads left in the heap to the OS and clears VmHWM
// (clear_refs 5). Best effort: where the kernel refuses, peaks accumulate
// over the suite.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads the process's high-water resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	s := bufio.NewScanner(f)
	for s.Scan() {
		if rest, ok := strings.CutPrefix(s.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := s.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// timing is the host time of a measured region, batch by batch, in
// seconds.
//
// The sandbox's noise is interference from outside (a memory-bound loop
// varies by ±30 % from one second to the next while a register-bound one
// holds ±3 %), and interference only ever slows a batch. So the host-time
// figures are built from two estimators that discount it instead of from
// whole-run wall time, which moved by ±15 % between identical runs:
// quiet, across runs of identical work, and relative, between two runs
// whose batches correspond.
type timing []float64

func (t timing) total() float64 {
	var s float64
	for _, v := range t {
		s += v
	}
	return s
}

// quiet times each batch at the fastest of the runs given, skipping run
// skip (-1 for none): the region's host time had every batch met the host
// at its quietest.
func quiet(runs []timing, skip int) timing {
	var out timing
	for r, run := range runs {
		if r == skip {
			continue
		}
		if out == nil {
			out = append(out, run...)
			continue
		}
		for i, v := range run {
			if v < out[i] {
				out[i] = v
			}
		}
	}
	return out
}

// relative is the median over batches of run's time over ref's: how much
// slower run is than ref, robust to interference in under half the
// batches. ref may be longer than run (a replayed prefix).
func relative(run, ref timing) float64 {
	ratios := make([]float64, 0, len(run))
	for i, v := range run {
		if ref[i] > 0 {
			ratios = append(ratios, v/ref[i])
		}
	}
	if len(ratios) == 0 {
		return 1
	}
	sort.Float64s(ratios)
	return quantile(ratios, 0.5)
}

// summary is the distribution of one metric over a pass's repetitions.
type summary struct {
	// Value is the figure reported and compared: the median, unless the
	// metric says otherwise (host_accesses_per_sec).
	Value  float64   `json:"value"`
	N      int       `json:"n"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Values []float64 `json:"values"`
	// Raw holds host_accesses_per_sec's plain per-repetition figures
	// (accesses over wall time), for the record.
	Raw []float64 `json:"raw_values,omitempty"`
}

func summarize(values []float64) summary {
	s := summary{N: len(values), Values: values}
	if len(values) == 0 {
		return s
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	s.Median = quantile(sorted, 0.5)
	s.Value = s.Median
	s.Q1 = quantile(sorted, 0.25)
	s.Q3 = quantile(sorted, 0.75)
	return s
}

// quantile interpolates linearly between order statistics of a sorted
// sample (the "inclusive" method).
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// minReps is the floor on repetitions of the end-to-end pass; above it the
// pass repeats until it has measured for the requested time.
const (
	minReps = 3
	maxReps = 64
)

// endToEnd is the untraced pass of one workload.
type endToEnd struct {
	checks
	metrics map[string]summary
	digest  uint64
}

// runEndToEnd measures w untraced, with every sink off: one untimed run on
// static tiering for the paper's normalisation, then fixed-work repetitions
// on fresh machines until seconds of measured host time have accumulated.
func runEndToEnd(w workload, sc scale, seed uint64, seconds float64) (endToEnd, error) {
	out := endToEnd{metrics: map[string]summary{}}
	resetPeakRSS()
	static := runOnce(w, sc, seed, buildOpts{policy: "static"})
	out.absorb(static)

	var first rep
	var raw, setup []float64
	var timings []timing
	var measured float64
	for n := 0; n < maxReps && (n < minReps || measured < seconds); n++ {
		r := runOnce(w, sc, seed, buildOpts{})
		r.inst = nil // let the machine go before the next one is built
		out.absorb(r)
		if n == 0 {
			first, out.digest = r, r.digest
		}
		out.expect(r.digest == out.digest, "%s: repetition %d has sim_digest %016x, repetition 0 had %016x", w.name, n, r.digest, out.digest)
		raw = append(raw, float64(r.accesses)/r.measureS)
		timings = append(timings, r.batchS)
		setup = append(setup, r.setupS)
		measured += r.measureS
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return out, err
	}
	// Speed is accesses over the quiet time of all repetitions; its
	// distribution is over the estimates that leave one repetition out,
	// which shows how far the figure leans on any single one.
	accesses := float64(first.accesses)
	leaveOneOut := make([]float64, len(timings))
	for skip := range timings {
		leaveOneOut[skip] = accesses / quiet(timings, skip).total()
	}
	speed := summarize(leaveOneOut)
	speed.Value = accesses / quiet(timings, -1).total()
	speed.Raw = raw
	out.metrics["host_accesses_per_sec"] = speed
	out.metrics["setup_s"] = summarize(setup)
	out.metrics["peak_rss_mb"] = summarize([]float64{rss})
	out.metrics["sim_elapsed_ms"] = summarize([]float64{float64(first.simNS) / 1e6})
	out.metrics["sim_speedup_vs_static"] = summarize([]float64{ratio(float64(static.simNS), float64(first.simNS))})
	out.metrics["fast_tier_hit_ratio"] = summarize([]float64{first.fastRatio})
	return out, nil
}
