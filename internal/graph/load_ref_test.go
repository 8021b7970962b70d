package graph

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"multiclock/internal/machine"
	"multiclock/internal/sim"
	"multiclock/internal/simdata"
)

// The load phase as it was written before it became linear passes: a float
// switch per RMAT draw, and adjacency grown by append and sorted per vertex.
// Kept verbatim (renamed) so TestLoadPhaseMatchesReference can hold the
// current GenerateEdges and Build to their exact output.

func refGenerateEdges(cfg GenConfig) []Edge {
	if cfg.Vertices <= 1 || cfg.Degree <= 0 {
		panic("graph: need at least 2 vertices and positive degree")
	}
	rng := sim.NewRNG(cfg.Seed)
	m := cfg.Vertices * cfg.Degree
	edges := make([]Edge, 0, m)
	if cfg.Kronecker {
		// RMAT with GAPBS's (A,B,C) = (0.57, 0.19, 0.19).
		bits := 0
		for 1<<bits < cfg.Vertices {
			bits++
		}
		n := int32(1) << bits
		for len(edges) < m {
			var u, v int32
			for b := 0; b < bits; b++ {
				p := rng.Float64()
				switch {
				case p < 0.57: // quadrant A: (0,0)
				case p < 0.76: // B: (0,1)
					v |= 1 << b
				case p < 0.95: // C: (1,0)
					u |= 1 << b
				default: // D: (1,1)
					u |= 1 << b
					v |= 1 << b
				}
			}
			if int(u) < cfg.Vertices && int(v) < cfg.Vertices && u != v {
				edges = append(edges, Edge{u, v})
			}
			_ = n
		}
	} else {
		for len(edges) < m {
			u := int32(rng.Intn(cfg.Vertices))
			v := int32(rng.Intn(cfg.Vertices))
			if u != v {
				edges = append(edges, Edge{u, v})
			}
		}
	}
	return edges
}

// refGraph is the CSR refBuild writes: Graph's arrays as they were, the
// weights an int32 array on the host as well as in simulated memory.
type refGraph struct {
	N, M    int
	offsets *simdata.Array[int64]
	targets *simdata.Array[int32]
	weights *simdata.Array[int32]
}

func refBuild(m *machine.Machine, edges []Edge, n int, seed uint64) *refGraph {
	// Symmetrize and dedupe in host memory (the builder's scratch), then
	// stream into simulated arrays (the load phase the machine observes).
	adj := make([][]int32, n)
	for _, e := range edges {
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	total := 0
	for u := range adj {
		l := adj[u]
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
		out := l[:0]
		var prev int32 = -1
		for _, v := range l {
			if v != prev {
				out = append(out, v)
				prev = v
			}
		}
		adj[u] = out
		total += len(out)
	}

	as := m.NewSpace()
	g := &refGraph{N: n, M: total}
	g.offsets = simdata.NewArray[int64](m, as, "csr-offsets", n+1)
	g.targets = simdata.NewArray[int32](m, as, "csr-targets", max(total, 1))
	g.weights = simdata.NewArray[int32](m, as, "csr-weights", max(total, 1))

	rng := sim.NewRNG(seed ^ 0x5eed)
	pos := 0
	for u := 0; u < n; u++ {
		g.offsets.Set(u, int64(pos))
		for _, v := range adj[u] {
			g.targets.Set(pos, v)
			g.weights.Set(pos, int32(rng.Intn(255))+1)
			pos++
		}
	}
	g.offsets.Set(n, int64(pos))
	return g
}

// refQuadrant is one RMAT draw's decode in the reference's float form.
func refQuadrant(p float64) (u, v uint64) {
	switch {
	case p < 0.57:
	case p < 0.76:
		v = 1
	case p < 0.95:
		u = 1
	default:
		u, v = 1, 1
	}
	return u, v
}

func TestLoadPhaseMatchesReference(t *testing.T) {
	t.Run("quadrant decode at each threshold", func(t *testing.T) {
		for _, c := range []float64{0.57, 0.76, 0.95} {
			m := uint64(c * (1 << 53))
			for _, k := range []uint64{m - 1, m, 0, 1<<53 - 1} {
				// Float64 is (Uint64()>>11) / 2⁵³, so any draw whose top 53
				// bits are k decodes as k does; vary the low 11 bits too.
				for _, low := range []uint64{0, 1<<11 - 1} {
					x := k<<11 | low
					gu, gv := quadrant(x)
					wu, wv := refQuadrant(float64(x>>11) / (1 << 53))
					if gu != wu || gv != wv {
						t.Fatalf("c=%v k=%d: quadrant (%d,%d), reference (%d,%d)", c, k, gu, gv, wu, wv)
					}
				}
			}
		}
	})

	t.Run("edges", func(t *testing.T) {
		for _, kron := range []bool{true, false} {
			for _, n := range []int{2, 3, 100, 1000, 1024, 96_000} {
				seeds := []uint64{1, 2, 7, 41, 0xdeadbeef}
				if n == 96_000 {
					seeds = seeds[:1]
				}
				for _, seed := range seeds {
					cfg := GenConfig{Vertices: n, Degree: 3, Kronecker: kron, Seed: seed}
					got, want := GenerateEdges(cfg), refGenerateEdges(cfg)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%+v: edge lists differ", cfg)
					}
				}
			}
		}
	})

	t.Run("build", func(t *testing.T) {
		type input struct {
			name  string
			edges []Edge
			n     int
		}
		var hub []Edge
		for v := int32(1); v < 300; v++ {
			hub = append(hub, Edge{0, v}, Edge{v, 0}, Edge{v, (v % 299) + 1})
		}
		inputs := []input{
			{"empty", nil, 4},
			{"no vertices", nil, 0},
			{"duplicates and both orientations", []Edge{{0, 1}, {0, 1}, {1, 0}, {2, 1}, {1, 2}, {2, 1}}, 3},
			{"self-loop", []Edge{{2, 2}, {0, 2}, {2, 2}, {1, 0}}, 3},
			{"isolated vertices", []Edge{{5, 9}, {9, 1}, {1, 5}}, 12},
			{"hub", hub, 300},
		}
		gen := func(cfg GenConfig) {
			inputs = append(inputs, input{fmt.Sprintf("%+v", cfg), refGenerateEdges(cfg), cfg.Vertices})
		}
		for _, n := range []int{2, 3, 100, 1000, 1024} {
			for _, kron := range []bool{true, false} {
				for _, seed := range []uint64{3, 41} {
					gen(GenConfig{Vertices: n, Degree: 8, Kronecker: kron, Seed: seed})
				}
			}
		}
		gen(GenConfig{Vertices: 96_000, Degree: 8, Kronecker: true, Seed: 41}) // gapbs-pr's shape
		for i, in := range inputs {
			seed := uint64(i) // the weight stream's seed
			if err := buildMatchesReference(in.edges, in.n, seed); err != nil {
				t.Fatalf("%s, seed %d: %v", in.name, seed, err)
			}
		}
	})
}

// FuzzBuildMatchesReference holds Build to refBuild on edge lists decoded
// from the input: the first byte picks up to 64 vertices, each further pair
// of bytes is an edge (self-loops, duplicates and isolated vertices occur
// as the bytes fall).
func FuzzBuildMatchesReference(f *testing.F) {
	f.Add([]byte{}, uint64(0))
	f.Add([]byte{3, 0, 1, 0, 1, 1, 0, 2, 1, 1, 2}, uint64(1))
	f.Add([]byte{3, 2, 2, 0, 2, 2, 2, 1, 0}, uint64(2))
	f.Add([]byte{12, 5, 9, 9, 1, 1, 5}, uint64(3))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]%64) + 1
		var edges []Edge
		for i := 1; i+1 < len(data); i += 2 {
			edges = append(edges, Edge{int32(int(data[i]) % n), int32(int(data[i+1]) % n)})
		}
		if err := buildMatchesReference(edges, n, seed); err != nil {
			t.Fatalf("n=%d edges=%v seed=%d: %v", n, edges, seed, err)
		}
	})
}

// buildMatchesReference builds edges with Build and with refBuild, each on
// a fresh machine, and reports the first difference: a CSR value, or the
// clock and counters that the simulated writes moved.
func buildMatchesReference(edges []Edge, n int, seed uint64) error {
	gm, wm := newM(), newM()
	got := Build(gm, edges, n, seed)
	want := refBuild(wm, edges, n, seed)
	if err := sameGraph(got, want); err != nil {
		return err
	}
	if gm.Clock.Now() != wm.Clock.Now() || !reflect.DeepEqual(gm.Mem.Counters, wm.Mem.Counters) {
		return fmt.Errorf("machine differs: clock %v vs %v, counters %+v vs %+v",
			gm.Clock.Now(), wm.Clock.Now(), gm.Mem.Counters, wm.Mem.Counters)
	}
	return nil
}

// sameGraph compares shape and every CSR value without simulated reads.
func sameGraph(got *Graph, want *refGraph) error {
	if got.N != want.N || got.M != want.M {
		return fmt.Errorf("n=%d m=%d, reference n=%d m=%d", got.N, got.M, want.N, want.M)
	}
	if got.offsets.Len() != want.offsets.Len() || got.targets.Len() != want.targets.Len() ||
		got.weights.Len() != want.weights.Len() || len(got.weight) != want.weights.Len() {
		return fmt.Errorf("array lengths differ")
	}
	for i := 0; i < want.offsets.Len(); i++ {
		if g, w := got.offsets.Peek(i), want.offsets.Peek(i); g != w {
			return fmt.Errorf("offsets[%d] = %d, reference %d", i, g, w)
		}
	}
	for i := 0; i < want.targets.Len(); i++ {
		if g, w := got.targets.Peek(i), want.targets.Peek(i); g != w {
			return fmt.Errorf("targets[%d] = %d, reference %d", i, g, w)
		}
		if g, w := int32(got.weight[i]), want.weights.Peek(i); g != w {
			return fmt.Errorf("weights[%d] = %d, reference %d", i, g, w)
		}
	}
	return nil
}
