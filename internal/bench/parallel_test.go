package bench

// Determinism contract of the parallel runner: every experiment cell is an
// independent single-threaded simulated machine, so fanning cells out
// across goroutines must not change a byte of output. These tests run
// representative experiments sequentially and at -parallel 4 and compare
// the full rendered text.

import "testing"

func TestParallelOutputByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	t.Parallel()
	// Fig5 fans out per system (the Fig. 5/6 cell pattern the runner was
	// built for); Fig10 fans out a 13-cell interval sweep; Bakeoff fans out
	// the competitor-policy set (nomad, s3fifo, the gated daemons).
	// Each Run computes its cells in a fresh cache, so the two sides are
	// two real computations.
	for _, name := range []string{"fig5", "fig10", "bakeoff"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			seq := mustRun(t, name, Options{Quick: true, Seed: 1, Parallel: 1})
			par := mustRun(t, name, Options{Quick: true, Seed: 1, Parallel: 4})
			if seq != par {
				t.Errorf("parallel output differs from sequential:\n--- parallel=1 ---\n%s\n--- parallel=4 ---\n%s", seq, par)
			}
		})
	}
}

func TestParallelOutputByteIdenticalCheap(t *testing.T) {
	// Short-mode guard: Fig2 is fast enough to always verify the
	// contract, including under -race in CI.
	seq := fig2(Options{Quick: true, Seed: 1, Parallel: 1})
	par := fig2(Options{Quick: true, Seed: 1, Parallel: 4})
	if seq != par {
		t.Fatalf("parallel output differs from sequential:\n--- parallel=1 ---\n%s\n--- parallel=4 ---\n%s", seq, par)
	}
}

func TestOptionsWorkers(t *testing.T) {
	if got := (Options{}).workers(); got != 1 {
		t.Fatalf("default workers = %d, want sequential", got)
	}
	if got := (Options{Parallel: 1}).workers(); got != 1 {
		t.Fatalf("Parallel=1 workers = %d", got)
	}
	if got := (Options{Parallel: 6}).workers(); got != 6 {
		t.Fatalf("Parallel=6 workers = %d", got)
	}
	if got := (Options{Parallel: -1}).workers(); got != -1 {
		t.Fatalf("Parallel=-1 workers = %d, want passthrough for GOMAXPROCS resolution", got)
	}
}
