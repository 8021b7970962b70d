package ycsb

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"multiclock/internal/kvstore"
	"multiclock/internal/machine"
	"multiclock/internal/policy"
	"multiclock/internal/sim"
	"multiclock/internal/snapcodec"
)

// refStep is Step as it was before the client drew ahead: every op's mix and
// key drawn in line from the client's RNG and the run's chooser. The draw
// logic is verbatim; the only additions are the lines that log each op.
func refStep(r *Run, log *[]op) bool {
	if r.done >= r.ops || r.unsupported {
		return false
	}
	c, w := r.c, r.w
	opStart := c.m.Clock.Now()
	p := c.rng.Float64()
	switch {
	case p < w.ReadProp:
		k := r.chooser.Next(c.rng)
		*log = append(*log, mkOp(opRead, k))
		c.store.Get(uint64(k))
	case p < w.ReadProp+w.UpdateProp:
		k := r.chooser.Next(c.rng)
		*log = append(*log, mkOp(opUpdate, k))
		c.store.Set(uint64(k), recordSize)
	case p < w.ReadProp+w.UpdateProp+w.InsertProp:
		key := uint64(c.records)
		*log = append(*log, mkOp(opInsert, int64(key)))
		c.records++
		r.chooser.Grow(c.records)
		c.store.Insert(key, recordSize)
	case p < w.ReadProp+w.UpdateProp+w.InsertProp+w.RMWProp:
		k := r.chooser.Next(c.rng)
		*log = append(*log, mkOp(opRMW, k))
		c.store.ReadModifyWrite(uint64(k))
	default:
		k := r.chooser.Next(c.rng)
		*log = append(*log, mkOp(opScan, k))
		if err := c.store.Scan(uint64(k), 100); err != nil {
			r.unsupported = true
		}
	}
	c.m.EndOp()
	r.lat.Add(float64(c.m.Clock.Now() - opStart))
	r.done++
	return r.done < r.ops && !r.unsupported
}

// seededClient is a loaded client over records with the client seed given.
func seededClient(records int64, seed uint64) *Client {
	cfg := machine.DefaultConfig()
	cfg.Mem.DRAMNodes = []int{2048}
	cfg.Mem.PMNodes = []int{8192}
	m := machine.New(cfg, policy.NewStatic())
	store := kvstore.New(m, kvstore.DefaultConfig(int(records)))
	c := NewClient(m, store, ClientConfig{Records: records, Seed: seed})
	c.Load()
	return c
}

// position is the client's and the run's checkpoint at an op boundary.
func position(t *testing.T, c *Client, r *Run) []byte {
	t.Helper()
	w := snapcodec.NewWriter()
	if err := c.Checkpoint(w); err != nil {
		t.Fatal(err)
	}
	if err := r.Checkpoint(w); err != nil {
		t.Fatal(err)
	}
	return w.Bytes()
}

// checked reports whether the oracle compares positions after done ops of a
// run of ops: at and around every chunk boundary, once inside each chunk, and
// at the end.
func checked(done, ops int64) bool {
	switch done % chunkOps {
	case 0, 1, 2, chunkOps - 2, chunkOps - 1, chunkOps / 3:
		return true
	}
	return done == ops
}

// mutants tallies the boundaries at which a wrong re-derivation would have
// shown: the RNG replayed over one op too few or too many, or the chooser
// left ungrown.
type mutants struct{ fewer, more, ungrown int }

// note re-derives the new run's position the way settle does, with each of
// the three mistakes, and counts those that differ from the reference's
// client RNG and chooser.
func (m *mutants) note(t *testing.T, c *Client, r *Run, ref *Client, refRun *Run) {
	t.Helper()
	if r.d == nil {
		return // not drawing ahead: nothing re-derived
	}
	replay := func(k int) sim.RNG {
		rng := r.cur.rng
		for _, o := range r.batch[:k] {
			rng.Uint64()
			if o.kind() != opInsert {
				rng.Uint64()
			}
		}
		return rng
	}
	if r.pos > 0 && replay(r.pos-1) != *ref.rng {
		m.fewer++
	}
	if r.pos < len(r.batch) && replay(r.pos+1) != *ref.rng {
		m.more++
	}
	z := new(Zipfian)
	ungrown := cloneChooser(r.cur.chooser, z)
	want := snapcodec.NewWriter()
	got := snapcodec.NewWriter()
	if ref.checkpointChooser(want, &refRun.chooser) != nil || c.checkpointChooser(got, &ungrown) != nil {
		t.Fatal("chooser checkpoint failed")
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		m.ungrown++
	}
}

// lockstep runs w for ops operations on two clients of the same seed, one
// stepped by Step and one by refStep, and fails on the first op, position,
// latency histogram, store count or result that differs.
func lockstep(t *testing.T, c, ref *Client, w Workload, ops int64, m *mutants) {
	t.Helper()
	r, refRun := c.StartRun(w, ops), ref.StartRun(w, ops)
	var refOps []op
	for i := int64(1); ; i++ {
		more, refMore := r.Step(), refStep(refRun, &refOps)
		if more != refMore {
			t.Fatalf("op %d: Step returned %v, the reference %v", i, more, refMore)
		}
		if got, want := r.batch[r.pos-1], refOps[i-1]; got != want {
			t.Fatalf("op %d: kind %d key %d, the reference kind %d key %d", i, got.kind(), got.key(), want.kind(), want.key())
		}
		if checked(i, ops) || !more {
			m.note(t, c, r, ref, refRun)
			if got, want := position(t, c, r), position(t, ref, refRun); !bytes.Equal(got, want) {
				t.Fatalf("op %d: client and run checkpoint differ from the reference's", i)
			}
		}
		if !more {
			break
		}
	}
	if *c.rng != *ref.rng || c.records != ref.records {
		t.Fatalf("end: records %d, the reference %d, or the RNG differs", c.records, ref.records)
	}
	if c.store.Stats != ref.store.Stats {
		t.Fatalf("store counts %+v, the reference %+v", c.store.Stats, ref.store.Stats)
	}
	if got, want := r.Finish(), refRun.Finish(); got != want {
		t.Fatalf("result %+v, the reference %+v", got, want)
	}
}

// insertSeed returns the first client seed whose workload D stream inserts at
// op index at: the mix draw, then one key draw unless the op inserts.
func insertSeed(at int) uint64 {
	w := WorkloadD
	for seed := uint64(1); ; seed++ {
		rng := sim.NewRNG(seed)
		for i := 0; ; i++ {
			p := rng.Float64()
			insert := p >= w.ReadProp+w.UpdateProp && p < w.ReadProp+w.UpdateProp+w.InsertProp
			if i == at {
				if insert {
					return seed
				}
				break
			}
			if !insert {
				rng.Uint64()
			}
		}
	}
}

// TestDrawAheadMatchesInline is the oracle: every workload, at run lengths on
// both sides of a chunk and over several, with the table prepaid (150
// records, so every run of at least 2 700 ops over a fixed key space builds
// it at StartRun) and on the formula (1 500 records), steps the same ops as
// the in-line reference, and the client's and run's checkpoints agree with
// it at every checked boundary. Workload D also runs at seeds that insert at
// a chunk's last op and at the next chunk's first. A last case runs the paper
// sequence on one client, so the table is built by a fill in flight and
// carried from run to run. The mutation tally asserts the checked boundaries
// would have caught each wrong re-derivation settle could make.
func TestDrawAheadMatchesInline(t *testing.T) {
	var m mutants
	lengths := []int64{1, chunkOps - 1, chunkOps, chunkOps + 1, 3*chunkOps + 100}
	for _, records := range []int64{150, 1500} {
		for _, w := range []Workload{WorkloadA, WorkloadB, WorkloadC, WorkloadD, WorkloadE, WorkloadF, WorkloadW} {
			for _, ops := range lengths {
				t.Run(fmt.Sprintf("%s/%d-records/%d-ops", w.Name, records, ops), func(t *testing.T) {
					lockstep(t, seededClient(records, 42), seededClient(records, 42), w, ops, &m)
				})
			}
		}
	}
	for _, at := range []int{chunkOps - 1, chunkOps} {
		seed := insertSeed(at)
		t.Run(fmt.Sprintf("D/insert-at-%d/seed-%d", at, seed), func(t *testing.T) {
			lockstep(t, seededClient(150, seed), seededClient(150, seed), WorkloadD, 2*chunkOps+1, &m)
		})
	}
	t.Run("paper-sequence", func(t *testing.T) {
		c, ref := seededClient(1000, 7), seededClient(1000, 7)
		for _, w := range PaperSequence {
			lockstep(t, c, ref, w, 3*chunkOps+100, &m)
			if w.Name == "B" && c.tables.table == nil {
				t.Fatal("A and B drew 18 draws an item over one key space, and no table was built")
			}
		}
	})
	if m.fewer == 0 || m.more == 0 || m.ungrown == 0 {
		t.Fatalf("a wrong re-derivation would have passed: %+v boundaries caught it", m)
	}
	t.Logf("boundaries that caught a wrong re-derivation: %+v", m)
}

// settleGoroutines waits for the goroutine count to come back to base, and
// fails if it has not within a few seconds.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the run", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDrawAheadLeavesNoGoroutine pins the fill goroutines' lifetime. A run
// stepped to its end, finished or not, has no fill in flight once its last
// Step returns (workload E's early stop waits for the one it has), and a run
// abandoned mid-chunk leaves only the fill in flight, which returns by
// itself. The count is polled because a goroutine that has handed its chunk
// over is still counted until it has returned.
func TestDrawAheadLeavesNoGoroutine(t *testing.T) {
	for _, w := range []Workload{WorkloadA, WorkloadD, WorkloadE} {
		c := seededClient(500, 3)
		base := runtime.NumGoroutine()
		r := c.StartRun(w, 5*chunkOps+7)
		for r.Step() {
		}
		if r.pending {
			t.Fatalf("workload %s stepped to its end with a fill in flight", w.Name)
		}
		settleGoroutines(t, base)
		c.Run(w, 3*chunkOps)
		settleGoroutines(t, base)
		r = c.StartRun(w, 5*chunkOps)
		for i := 0; i < chunkOps+chunkOps/2 && r.Step(); i++ {
		}
		settleGoroutines(t, base)
	}
}
