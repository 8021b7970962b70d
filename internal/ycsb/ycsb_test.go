package ycsb

import (
	"math"
	"testing"

	"multiclock/internal/kvstore"
	"multiclock/internal/machine"
	"multiclock/internal/policy"
	"multiclock/internal/sim"
)

func TestZipfianSkew(t *testing.T) {
	z := NewZipfian(1000)
	rng := sim.NewRNG(1)
	counts := make([]int64, 1000)
	const draws = 200000
	for i := 0; i < draws; i++ {
		v := z.Next(rng)
		if v < 0 || v >= 1000 {
			t.Fatalf("out of range: %d", v)
		}
		counts[v]++
	}
	// Item 0 should be by far the most popular (≈1/zetan ≈ 13%).
	frac0 := float64(counts[0]) / draws
	if frac0 < 0.08 || frac0 > 0.2 {
		t.Fatalf("item 0 frequency %v, want ≈0.13", frac0)
	}
	if counts[0] <= counts[500] {
		t.Fatal("no skew")
	}
	// Top 10% of items should draw the majority of accesses.
	var top int64
	for i := 0; i < 100; i++ {
		top += counts[i]
	}
	if float64(top)/draws < 0.6 {
		t.Fatalf("top-10%% share %v, want majority", float64(top)/draws)
	}
}

func TestZipfianGrow(t *testing.T) {
	z := NewZipfian(100)
	zetaBefore := z.zetan
	z.Grow(200)
	if z.Items() != 200 {
		t.Fatal("Grow")
	}
	if z.zetan <= zetaBefore {
		t.Fatal("zeta must grow")
	}
	// Incremental zeta equals recomputed zeta.
	fresh := NewZipfian(200)
	if math.Abs(z.zetan-fresh.zetan) > 1e-9 {
		t.Fatalf("incremental zeta %v != fresh %v", z.zetan, fresh.zetan)
	}
	z.Grow(50) // shrink is ignored
	if z.Items() != 200 {
		t.Fatal("shrink should be ignored")
	}
}

func TestZipfianEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewZipfian(0)
}

func TestScrambledSpreadsHotKeys(t *testing.T) {
	s := NewScrambled(1000)
	rng := sim.NewRNG(2)
	counts := make(map[int64]int64)
	for i := 0; i < 100000; i++ {
		v := s.Next(rng)
		if v < 0 || v >= 1000 {
			t.Fatalf("out of range: %d", v)
		}
		counts[v]++
	}
	// The hottest key should NOT be key 0 specifically (scrambling), and
	// skew should persist.
	var hottest int64
	var hotKey int64
	for k, c := range counts {
		if c > hottest {
			hottest, hotKey = c, k
		}
	}
	if hottest < 5000 {
		t.Fatalf("scrambling destroyed skew: max count %d", hottest)
	}
	if hotKey == 0 {
		t.Fatal("hottest key is 0; scrambling suspect")
	}
}

func TestLatestFavorsRecent(t *testing.T) {
	l := NewLatest(1000)
	rng := sim.NewRNG(3)
	var recent int64
	const draws = 50000
	for i := 0; i < draws; i++ {
		v := l.Next(rng)
		if v < 0 || v >= 1000 {
			t.Fatalf("out of range: %d", v)
		}
		if v >= 900 {
			recent++
		}
	}
	if float64(recent)/draws < 0.5 {
		t.Fatalf("recent-10%% share %v, want majority", float64(recent)/draws)
	}
	l.Grow(2000)
	for i := 0; i < 1000; i++ {
		if v := l.Next(rng); v < 0 || v >= 2000 {
			t.Fatalf("after grow, out of range: %d", v)
		}
	}
}

func TestUniform(t *testing.T) {
	u := NewUniform(100)
	rng := sim.NewRNG(4)
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		counts[u.Next(rng)]++
	}
	for i, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("key %d count %d, not uniform", i, c)
		}
	}
}

func TestWorkloadProportionsSumToOne(t *testing.T) {
	for _, w := range []Workload{WorkloadA, WorkloadB, WorkloadC, WorkloadD, WorkloadE, WorkloadF, WorkloadW} {
		sum := w.ReadProp + w.UpdateProp + w.InsertProp + w.RMWProp + w.ScanProp
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("workload %s proportions sum to %v", w.Name, sum)
		}
	}
}

func TestByName(t *testing.T) {
	w, err := ByName("D")
	if err != nil || w.Dist != DistLatest {
		t.Fatal("ByName D")
	}
	if _, err := ByName("Z"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestPaperSequenceOrder(t *testing.T) {
	names := ""
	for _, w := range PaperSequence {
		names += w.Name
	}
	if names != "ABCFWD" {
		t.Fatalf("sequence = %s, want ABCFWD (D last, §V-B)", names)
	}
}

func newClient(records int64) (*machine.Machine, *Client) {
	cfg := machine.DefaultConfig()
	cfg.Mem.DRAMNodes = []int{2048}
	cfg.Mem.PMNodes = []int{8192}
	m := machine.New(cfg, policy.NewStatic())
	store := kvstore.New(m, kvstore.DefaultConfig(int(records)))
	return m, NewClient(m, store, DefaultClientConfig(records))
}

func TestClientLoadPhase(t *testing.T) {
	m, c := newClient(1000)
	c.Load()
	if c.Records() != 1000 {
		t.Fatal("records after load")
	}
	if m.Ops != 1000 {
		t.Fatal("load ops")
	}
}

func TestClientRunBeforeLoadPanics(t *testing.T) {
	_, c := newClient(100)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	c.Run(WorkloadA, 10)
}

func TestClientRunWorkloadA(t *testing.T) {
	_, c := newClient(2000)
	c.Load()
	res := c.Run(WorkloadA, 5000)
	if res.Ops != 5000 || res.Unsupported {
		t.Fatalf("result: %+v", res)
	}
	if res.Throughput <= 0 || res.Elapsed <= 0 {
		t.Fatalf("no throughput measured: %+v", res)
	}
	st := c.store.Stats
	ratio := float64(st.Gets) / float64(st.Gets+st.Sets)
	if ratio < 0.45 || ratio > 0.55 {
		t.Fatalf("A read ratio %v, want ≈0.5", ratio)
	}
}

func TestClientWorkloadDInsertsGrow(t *testing.T) {
	_, c := newClient(2000)
	c.Load()
	c.Run(WorkloadD, 5000)
	if c.Records() <= 2000 {
		t.Fatal("D did not insert")
	}
	grown := c.Records() - 2000
	if grown < 150 || grown > 350 { // ≈5% of 5000
		t.Fatalf("D inserted %d records, want ≈250", grown)
	}
}

func TestClientWorkloadENonOperational(t *testing.T) {
	_, c := newClient(1000)
	c.Load()
	res := c.Run(WorkloadE, 1000)
	if !res.Unsupported {
		t.Fatal("E should be unsupported on memcached")
	}
	if res.Throughput != 0 {
		t.Fatal("unsupported workload must not report throughput")
	}
}

func TestClientWorkloadWAllWrites(t *testing.T) {
	_, c := newClient(1000)
	c.Load()
	c.Run(WorkloadW, 2000)
	st := c.store.Stats
	if st.Sets != 2000 {
		t.Fatalf("W sets = %d, want 2000", st.Sets)
	}
	if st.Gets != 0 {
		t.Fatal("W performed reads")
	}
}

func TestClientWorkloadFRMW(t *testing.T) {
	_, c := newClient(1000)
	c.Load()
	c.Run(WorkloadF, 2000)
	st := c.store.Stats
	if st.RMWs == 0 {
		t.Fatal("F performed no RMWs")
	}
	ratio := float64(st.RMWs) / 2000
	if ratio < 0.45 || ratio > 0.55 {
		t.Fatalf("F rmw ratio %v", ratio)
	}
}

func TestClientDeterminism(t *testing.T) {
	run := func() float64 {
		_, c := newClient(1000)
		c.Load()
		return c.Run(WorkloadA, 3000).Throughput
	}
	if run() != run() {
		t.Fatal("same seed, different throughput")
	}
}

func TestDefaultClientConfig(t *testing.T) {
	cfg := DefaultClientConfig(5)
	if cfg.Records != 5 || cfg.Seed != 42 {
		t.Fatalf("%+v", cfg)
	}
}

func TestNewClientValidation(t *testing.T) {
	m, _ := newClient(10)
	store := kvstore.New(m, kvstore.DefaultConfig(10))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero records")
		}
	}()
	NewClient(m, store, ClientConfig{Records: 0})
}
