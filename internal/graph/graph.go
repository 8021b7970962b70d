// Package graph is the GAP Benchmark Suite substrate (§V-B): CSR graphs
// stored in simulated memory, the uniform and Kronecker (RMAT) generators,
// and the six GAPBS kernels — BFS, SSSP, PageRank, Connected Components,
// Betweenness Centrality, and Triangle Counting. The graph is loaded into
// (simulated) memory first and the kernels then run over the
// memory-resident representation, exactly the two-phase shape the paper
// describes.
package graph

import (
	"fmt"

	"multiclock/internal/machine"
	"multiclock/internal/pagetable"
	"multiclock/internal/sim"
	"multiclock/internal/simdata"
)

// Edge is one directed edge.
type Edge struct {
	U, V int32
}

// GenConfig shapes a synthetic graph.
type GenConfig struct {
	// Vertices is the vertex count.
	Vertices int
	// Degree is the average out-degree (edges = Vertices × Degree).
	Degree int
	// Kronecker selects the RMAT generator (GAPBS's default synthetic
	// graph); false gives a uniform random graph.
	Kronecker bool
	Seed      uint64
}

// RMAT quadrant thresholds: GAPBS's (A,B,C) = (0.57, 0.19, 0.19) as the
// cumulative probabilities 0.57, 0.76 and 0.95, each scaled by 2⁵³. A draw
// x from sim.RNG is Float64() = (x>>11)/2⁵³ exactly, and a float64 c in
// [0.5, 1) is an integer multiple of 2⁻⁵³, so Float64() < c is exactly
// x>>11 < c·2⁵³ with both sides integers (DESIGN.md §7.6).
const (
	rmatA = uint64(float64(0.57) * (1 << 53))
	rmatB = uint64(float64(0.76) * (1 << 53))
	rmatC = uint64(float64(0.95) * (1 << 53))
)

// quadrant decodes one RMAT draw into its (u, v) bit: A (0,0) below rmatA,
// B (0,1) below rmatB, C (1,0) below rmatC, else D (1,1). Each ge* is 1 when
// k is at or past its threshold (the subtraction borrows into bit 63), so u
// is geB and v is the parity of the three.
func quadrant(x uint64) (u, v uint64) {
	k := x >> 11
	geA := (rmatA - 1 - k) >> 63
	geB := (rmatB - 1 - k) >> 63
	geC := (rmatC - 1 - k) >> 63
	return geB, geA ^ geB ^ geC
}

// GenerateEdges produces the edge list for cfg.
func GenerateEdges(cfg GenConfig) []Edge {
	if cfg.Vertices <= 1 || cfg.Degree <= 0 {
		panic("graph: need at least 2 vertices and positive degree")
	}
	rng := sim.NewRNG(cfg.Seed)
	m := cfg.Vertices * cfg.Degree
	edges := make([]Edge, 0, m)
	if cfg.Kronecker {
		bits := 0
		for 1<<bits < cfg.Vertices {
			bits++
		}
		n := uint64(cfg.Vertices)
		for len(edges) < m {
			var u, v uint64
			for b := 0; b < bits; b++ {
				du, dv := quadrant(rng.Uint64())
				u |= du << b
				v |= dv << b
			}
			if u < n && v < n && u != v {
				edges = append(edges, Edge{int32(u), int32(v)})
			}
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

// Graph is a CSR graph in simulated memory. Offsets and targets (and
// weights for SSSP) are simulated arrays; building the graph touches them
// with writes, which is the GAPBS load phase.
type Graph struct {
	N int
	M int

	m  *machine.Machine
	as *pagetable.AddressSpace

	offsets *simdata.Array[int64] // N+1
	targets *simdata.Array[int32] // M
	// weights lays out the SSSP edge weights as M int32 slots, as GAPBS
	// stores them; weight holds their values, a byte each on the host.
	weights simdata.Span
	weight  []uint8
}

// maxWeight is the largest edge weight: Build draws them from 1..maxWeight.
const maxWeight = 255

// A weight is held in one byte; this fails to compile if maxWeight outgrows it.
const _ uint8 = maxWeight

// Build constructs a CSR graph from edges, symmetrizing (every edge in
// both directions, as GAPBS does for its synthetic graphs), sorting and
// deduplicating adjacency lists, and writing the result into simulated
// memory on m.
func Build(m *machine.Machine, edges []Edge, n int, seed uint64) *Graph {
	// Symmetrize, sort and dedupe in host memory (the builder's scratch),
	// then stream into simulated arrays (the load phase the machine
	// observes). off[u] is where u's segment starts in a flat list of both
	// orientations of every edge; counts stay int so 2·len(edges) cannot
	// wrap.
	off := make([]int, n+1)
	for _, e := range edges {
		off[int(e.U)+1]++
		off[int(e.V)+1]++
	}
	for u := 0; u < n; u++ {
		off[u+1] += off[u]
	}
	// Pass 1 groups the neighbours by vertex, in edge order.
	next := make([]int, n)
	copy(next, off)
	byEdge := make([]int32, off[n])
	for _, e := range edges {
		byEdge[next[e.U]] = e.V
		next[e.U]++
		byEdge[next[e.V]] = e.U
		next[e.V]++
	}
	// Pass 2 scatters each u, in ascending order, into the segments of its
	// neighbours. The multiset is symmetric (v lists u as often as u lists
	// v), so segment v receives exactly its own neighbours, sorted, with
	// duplicates adjacent (DESIGN.md §7.6).
	copy(next, off)
	adj := make([]int32, off[n])
	for u := 0; u < n; u++ {
		for _, v := range byEdge[off[u]:off[u+1]] {
			adj[next[v]] = int32(u)
			next[v]++
		}
	}
	// Dedupe in place; off becomes the CSR offsets.
	total := 0
	for u := 0; u < n; u++ {
		lo, hi := off[u], off[u+1]
		off[u] = total
		prev := int32(-1)
		for _, v := range adj[lo:hi] {
			if v != prev {
				adj[total] = v
				total++
				prev = v
			}
		}
	}
	off[n] = total

	as := m.NewSpace()
	g := &Graph{N: n, M: total, m: m, as: as}
	g.offsets = simdata.NewArray[int64](m, as, "csr-offsets", n+1)
	g.targets = simdata.NewArray[int32](m, as, "csr-targets", max(total, 1))
	g.weights = simdata.NewSpan[int32](m, as, "csr-weights", max(total, 1))
	g.weight = make([]uint8, g.weights.Len())

	rng := sim.NewRNG(seed ^ 0x5eed)
	for u := 0; u < n; u++ {
		g.offsets.Set(u, int64(off[u]))
		for pos := off[u]; pos < off[u+1]; pos++ {
			g.targets.Set(pos, adj[pos])
			g.weights.Touch(pos, true)
			g.weight[pos] = uint8(rng.Intn(maxWeight) + 1)
		}
	}
	g.offsets.Set(n, int64(total))
	return g
}

// Generate builds a synthetic graph per cfg directly on machine m.
func Generate(m *machine.Machine, cfg GenConfig) *Graph {
	return Build(m, GenerateEdges(cfg), cfg.Vertices, cfg.Seed)
}

// FootprintPages returns the simulated pages the CSR arrays span.
func (g *Graph) FootprintPages() int {
	return g.offsets.Pages() + g.targets.Pages() + g.weights.Pages()
}

// Degree returns the out-degree of u (simulated reads of the offset
// array).
func (g *Graph) Degree(u int32) int {
	return int(g.offsets.Get(int(u)+1) - g.offsets.Get(int(u)))
}

// Neighbors calls fn for each neighbor of u with the edge index, charging
// the CSR reads.
func (g *Graph) Neighbors(u int32, fn func(v int32, edge int)) {
	lo := g.offsets.Get(int(u))
	hi := g.offsets.Get(int(u) + 1)
	for e := lo; e < hi; e++ {
		fn(g.targets.Get(int(e)), int(e))
	}
}

// Weight returns the weight of edge index e (simulated read).
func (g *Graph) Weight(e int) int32 {
	g.weights.Touch(e, false)
	return int32(g.weight[e])
}

// vertexArray allocates an n-vertex scratch array in the graph's space.
func vertexArray[T any](g *Graph, name string) *simdata.Array[T] {
	return simdata.NewArray[T](g.m, g.as, name, g.N)
}

func (g *Graph) String() string {
	return fmt.Sprintf("graph(n=%d, m=%d, %d pages)", g.N, g.M, g.FootprintPages())
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
