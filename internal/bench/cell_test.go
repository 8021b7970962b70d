package bench

import (
	"runtime"
	"sync/atomic"
	"testing"

	"multiclock/internal/metrics"
	"multiclock/internal/sim"
)

// TestMemoComputesOnceUnderContention: a request for a key that another
// goroutine is computing waits for that computation and gets its value; the
// key is computed once. A panic in a computation reaches every requester and
// is not retried.
func TestMemoComputesOnceUnderContention(t *testing.T) {
	var mo memo[string, int]
	var calls atomic.Int32
	release := make(chan struct{})
	compute := func() int {
		calls.Add(1)
		<-release
		return 42
	}
	got := make(chan int, 2)
	for range 2 {
		go func() { got <- mo.get("k", compute) }()
	}
	// Hold the computation until both requests are in, so the second one
	// finds it running.
	for {
		mo.mu.Lock()
		n := mo.requests
		mo.mu.Unlock()
		if n == 2 {
			break
		}
		runtime.Gosched()
	}
	close(release)
	for range 2 {
		if v := <-got; v != 42 {
			t.Errorf("requester got %d, want 42", v)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("computed %d times, want once", n)
	}

	for range 2 {
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Errorf("recovered %v, want the computation's panic", r)
				}
			}()
			mo.get("bad", func() int { calls.Add(1); panic("boom") })
		}()
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("the panicking key was computed %d times, want once", n)
	}
}

// TestPoolLabelsSplitCells: with a pool attached, the same run under two
// experiments' labels is two cells, each exporting under its own label;
// without one it is one cell.
func TestPoolLabelsSplitCells(t *testing.T) {
	sc := scale{RunConfig: RunConfig{Records: 500, Ops: 2000, DRAMPages: 64, PMPages: 512,
		Interval: sim.Millisecond, Seed: 1}}
	labelled := func(sc scale) []cell {
		fig5, bakeoff := sc, sc
		fig5.Prefix, bakeoff.Prefix = "fig5/", "bakeoff/"
		return []cell{fig5.cell(kindSequence, "static"), bakeoff.cell(kindSequence, "static")}
	}
	if c := labelled(sc); c[0] != c[1] {
		t.Errorf("without a pool the label splits the cell: %+v vs %+v", c[0], c[1])
	}
	pool := metrics.NewPool(0)
	sc.Pool = pool
	o := Options{cache: new(cellCache)}
	res := o.run(labelled(sc))
	if n := len(o.cache.cells.entries); n != 2 {
		t.Errorf("pooled fig5/ and bakeoff/ cells computed as %d runs, want 2", n)
	}
	runs := pool.Runs()
	if len(runs) != 2 || runs[0].Label != "bakeoff/static" || runs[1].Label != "fig5/static" {
		t.Errorf("pool runs %v, want bakeoff/static and fig5/static", runs)
	}
	if res[0].tp["A"] != res[1].tp["A"] {
		t.Errorf("the two labelled runs differ: %v vs %v", res[0].tp, res[1].tp)
	}
}
