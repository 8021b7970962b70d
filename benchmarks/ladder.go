package main

import (
	"fmt"
	"time"

	"multiclock/internal/lru"
	"multiclock/internal/machine"
	"multiclock/internal/pagetable"
	"multiclock/internal/sim"
)

// The ladder: control runs over the same input, each removing one layer, so
// that differences of host time per access isolate what the outside-in
// decorators cannot.
//
//	S0  the full workload, untraced (the quiet time of two runs)
//	S1  (ycsb-a) the same operations driving kvstore directly, no ycsb client
//	S2  the recorded access stream through Machine.AccessN, paced to the
//	    recorded virtual instants so daemons keep their cadence
//	S3  S2 on static tiering: no daemons, no promotion or demotion
//	S4  S3 with the CPU-cache filter off
//	S5  AddressSpace.Lookup alone over the stream
//
// S0 and S1 cover the whole measured region; S2–S5 cover the batches that
// fit whole into the first maxRecorded accesses. Every rung is taken as its
// host time relative to S0's over the batches both ran (see timing).

// mirrorVMAs gives dst every mapping src has and dst lacks (a PageRank run
// maps its vertex arrays inside the measured region), so a recorded stream
// can be replayed on a machine that only ran set-up. Spaces and VMAs are
// created in the same order on both, so the addresses agree.
func mirrorVMAs(src, dst *machine.Machine) error {
	for i, sas := range src.Spaces() {
		for len(dst.Spaces()) <= i {
			dst.NewSpace()
		}
		das := dst.Space(int32(i))
		for j, v := range sas.VMAs() {
			if j < len(das.VMAs()) {
				continue
			}
			var got *pagetable.VMA
			if v.Huge {
				got = das.MmapHuge(v.Pages(), v.Name)
			} else {
				got = das.Mmap(v.Pages(), v.File, v.Name)
			}
			if got.Start != v.Start || got.End != v.End {
				return fmt.Errorf("replay: space %d mapping %q lands at [%d,%d), recorded at [%d,%d)", i, v.Name, got.Start, got.End, v.Start, v.End)
			}
		}
	}
	return nil
}

// replayer issues the recorded stream, batch by batch, on a machine that
// has run the workload's set-up and been given every mapping the traced
// machine made inside its measured region.
type replayer struct {
	inst *instance
	tr   *tracer
	at   sim.Time
	next int // index of the first record not yet replayed
	took timing
}

func newReplayer(w workload, sc scale, seed uint64, o buildOpts, traced *instance, tr *tracer) (*replayer, error) {
	o.traced = true
	inst := w.build(sc, seed, o)
	if err := mirrorVMAs(traced.m, inst.m); err != nil {
		inst.stop()
		return nil, err
	}
	return &replayer{inst: inst, tr: tr, at: tr.recStart, took: make(timing, len(tr.marks))}, nil
}

// batch returns the records of batch i, or nil past the recorded prefix.
func (p *replayer) batch(i int) []accessRec {
	if i >= len(p.tr.marks) {
		return nil
	}
	lo := 0
	if i > 0 {
		lo = p.tr.marks[i-1]
	}
	return p.tr.recs[lo:p.tr.marks[i]]
}

// step replays batch i, paced to the recorded virtual instants so daemons
// fire between the same accesses as in the traced run.
func (p *replayer) step(i int) {
	recs := p.batch(i)
	if recs == nil {
		return
	}
	m := p.inst.m
	spaces := m.Spaces()
	t0 := time.Now()
	for _, r := range recs {
		p.at += sim.Time(r.dt)
		m.Clock.AdvanceTo(p.at)
		if p.inst.supervised {
			m.SupervisedAccess(spaces[r.space()], r.vpn(), r.write())
		} else {
			m.AccessN(spaces[r.space()], r.vpn(), r.write(), 1)
		}
	}
	p.took[i] = since(t0)
}

// lookups walks the page table alone over batch i (S5) and returns the
// host time; it runs on a machine that has just replayed the batch.
func (p *replayer) lookups(i int) float64 {
	spaces := p.inst.m.Spaces()
	resident := 0
	t0 := time.Now()
	for _, r := range p.batch(i) {
		if spaces[r.space()].Lookup(r.vpn()) != nil {
			resident++
		}
	}
	d := since(t0)
	sink = resident
	return d
}

// sink keeps results the compiler could otherwise prove unused.
var sink int

// tracedPass is everything the --trace 1 run of one workload produces.
type tracedPass struct {
	checks
	layer  map[string]float64
	spans  []span
	digest uint64
}

// runTraced produces the per-layer metrics of w: an untraced reference at
// trace scale (S0), the traced run, the ladder, and whatever isolated
// drivers, sink runs and sweeps have this workload as their home.
func runTraced(w workload, sc scale, seed uint64) (tracedPass, error) {
	out := tracedPass{layer: map[string]float64{}}
	for _, spec := range perLayer {
		out.layer[spec.Name] = 0
	}
	set := func(name string, v float64) {
		if _, ok := out.layer[name]; !ok {
			panic("benchmarks: metric " + name + " is not in the per-layer table")
		}
		out.layer[name] = v
	}

	// First lockstep: the reference S0, the traced run, and on ycsb-a the
	// client-free S1 and one run per sink.
	tr := newTracer()
	refS := begin(w, sc, seed, buildOpts{traced: true}, nil)
	txS := begin(w, sc, seed, buildOpts{traced: true, wrap: tr.wrap}, tr)
	steps := []func(int){refS.step, txS.step}
	var s1S *session
	var sinks *sinkRuns
	if w.name == "ycsb-a" {
		s1S = begin(w, sc, seed, buildOpts{traced: true, direct: true}, nil)
		steps = append(steps, s1S.step)
		sinks = beginSinks(w, sc, seed)
		for _, s := range sinks.sessions {
			steps = append(steps, s.step)
		}
	}
	lockstep(refS.inst.batches, steps...)
	s0 := refS.end()
	s0.inst = nil
	out.absorb(s0)
	tx := txS.end()
	out.absorb(tx)
	out.spans = tr.spans
	out.digest = tx.digest
	out.expect(tx.digest == s0.digest, "%s: tracing moved the simulation: sim_digest %016x traced, %016x untraced", w.name, tx.digest, s0.digest)
	if len(tr.marks) == 0 {
		return out, fmt.Errorf("%s: the first batch alone exceeds the %d-access recording", w.name, maxRecorded)
	}

	// Second lockstep: S0 again beside the replays of the recorded stream.
	// S5 walks the page table of the machine S4 has just brought to the
	// same point.
	ref2S := begin(w, sc, seed, buildOpts{traced: true}, nil)
	steps = []func(int){ref2S.step}
	var rungs []*replayer
	for _, o := range []buildOpts{{}, {policy: "static"}, {policy: "static", noCPUCache: true}} {
		p, err := newReplayer(w, sc, seed, o, tx.inst, tr)
		if err != nil {
			return out, err
		}
		rungs = append(rungs, p)
		steps = append(steps, p.step)
	}
	s4 := rungs[2]
	s5 := make(timing, len(tr.marks))
	steps = append(steps, func(i int) {
		if i < len(s5) {
			s5[i] = s4.lookups(i)
		}
	})
	lockstep(ref2S.inst.batches, steps...)
	for _, p := range rungs {
		p.inst.stop()
	}
	again := ref2S.end()
	again.inst = nil
	out.absorb(again)
	out.expect(again.digest == s0.digest, "%s: two runs of one seed disagree: sim_digest %016x, then %016x", w.name, s0.digest, again.digest)

	// S0's host time is the quiet time of its two runs; everything else is
	// relative to the S0 run it was stepped beside.
	s0NS := quiet([]timing{s0.batchS, again.batchS}, -1).total() * 1e9
	calls := float64(tr.observed)
	accesses := float64(tx.accesses)
	set("trace.overhead_pct", 100*(relative(tx.batchS, s0.batchS)-1))
	set("trace.spans", float64(len(tr.spans)))
	set("host.allocs_per_kaccess", 1000*float64(s0.mallocs)/accesses)
	set("host.alloc_bytes_per_access", float64(s0.allocBytes)/accesses)

	// Counts and ratios of the traced run: exact for a seed.
	d := tx.delta
	for name, v := range tx.layer {
		set(name, v)
	}
	set("pagetable.lookups", calls)
	set("machine.accesses", accesses)
	set("machine.cache_filtered_ratio", ratio(float64(d["cache_filtered"]), accesses))
	set("machine.minor_faults", float64(d["minor_faults"]))
	set("machine.faults_per_kaccess", 1000*ratio(float64(d["minor_faults"]), accesses))
	set("machine.hint_faults", float64(d["hint_faults"]))
	set("core.access_calls", float64(tr.accessCalls))
	set("core.promotions", float64(d["promotions"]))
	set("core.demotions", float64(d["demotions"]))
	set("core.pages_scanned", float64(d["pages_scanned"]))
	set("core.scanned_per_promotion", ratio(float64(d["pages_scanned"]), float64(d["promotions"])))
	set("core.migrations_per_kaccess", 1000*ratio(float64(d["promotions"]+d["demotions"]), accesses))
	set("core.promote_attempts", float64(tx.promoteAttempts))
	set("core.promote_success_ratio", ratio(float64(tx.promoteAttempts-tx.promoteFails), float64(tx.promoteAttempts)))
	set("mem.allocs", float64(sumPrefix(d, "allocs_")))
	set("mem.frees", float64(sumPrefix(d, "frees_")))
	set("mem.migrate_fails", float64(d["migrate_fails"]))
	set("mem.swap_outs", float64(d["swap_outs"]))
	set("mem.swap_ins", float64(d["swap_ins"]))
	set("mem.migration_busy_sim_ms", float64(d["migration_busy_ns"])/1e6)
	var promoteLen, activeLen, inactiveLen int
	for _, vec := range tx.inst.m.Vecs {
		promoteLen += vec.Len(lru.PromoteAnon) + vec.Len(lru.PromoteFile)
		activeLen += vec.Len(lru.ActiveAnon) + vec.Len(lru.ActiveFile)
		inactiveLen += vec.Len(lru.InactiveAnon) + vec.Len(lru.InactiveFile)
	}
	set("lru.promote_list_len_end", float64(promoteLen))
	set("lru.active_len_end", float64(activeLen))
	set("lru.inactive_len_end", float64(inactiveLen))

	// Host-time shares from the spans: a callee's share of the batches.
	batches := float64(tr.batchesNS)
	kpNS, kpCalls := tr.total("daemon.kpromoted")
	prNS, prCalls := tr.total("policy.Pressure")
	drNS, drCalls := tr.total("policy.DirectReclaim")
	dmNS, dmCalls := tr.daemonTotals()
	set("core.kpromoted_passes", float64(kpCalls))
	set("core.kpromoted_ns_per_pass", ratio(float64(kpNS), float64(kpCalls)))
	set("core.kpromoted_host_share", ratio(float64(kpNS), batches))
	set("core.host_ns_per_scanned_page", ratio(float64(kpNS), float64(d["pages_scanned"])))
	set("core.pressure_calls", float64(prCalls))
	set("core.pressure_host_share", ratio(float64(prNS), batches))
	set("core.direct_reclaim_calls", float64(drCalls))
	set("core.direct_reclaim_host_share", ratio(float64(drNS), batches))
	set("sim.daemon_passes", float64(dmCalls))
	set("sim.daemon_host_share", ratio(float64(dmNS), batches))

	// The ladder: each rung as its host time relative to S0's, over the
	// batches both ran.
	ops := float64(tx.ops)
	rho2, rho3, rho4 := relative(rungs[0].took, again.batchS), relative(rungs[1].took, again.batchS), relative(rungs[2].took, again.batchS)
	rho5 := relative(s5, again.batchS)
	perAccess := s0NS / calls
	set("machine.replay_ns_per_access", rho2*perAccess)
	set("machine.nullpolicy_ns_per_access", rho3*perAccess)
	set("machine.nocache_ns_per_access", rho4*perAccess)
	set("machine.self_ns_per_access", (rho3-rho5)*perAccess)
	set("pagetable.lookup_ns", rho5*perAccess)
	switch w.name {
	case "ycsb-a":
		s1 := s1S.end()
		s1.inst = nil
		out.absorb(s1)
		out.expect(s1.digest == s0.digest, "ycsb-a: the precomputed op list is not the client's: sim_digest %016x direct, %016x through ycsb", s1.digest, s0.digest)
		rho1 := relative(s1.batchS, s0.batchS)
		sinks.report(s0, &out, set)
		set("ycsb.self_ns_per_op", (1-rho1)*s0NS/ops)
		set("kvstore.accesses_per_op", accesses/ops)
		set("kvstore.self_ns_per_op", (rho1-rho2)*s0NS/ops)
	case "gapbs-pr":
		set("graph.accesses_per_edge", accesses/ops)
		set("graph.self_ns_per_edge", (1-rho2)*s0NS/ops)
	case "file-churn":
		set("pagecache.self_ns_per_op", (1-rho2)*s0NS/ops)
	}
	tx.inst = nil

	return out, runHomeDrivers(w, sc, seed, &out, set)
}
