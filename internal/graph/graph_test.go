package graph

import (
	"math"
	"runtime"
	"testing"

	"multiclock/internal/machine"
	"multiclock/internal/policy"
)

func newM() *machine.Machine {
	cfg := machine.DefaultConfig()
	cfg.Mem.DRAMNodes = []int{4096}
	cfg.Mem.PMNodes = []int{16384}
	cfg.OpCost = 0
	return machine.New(cfg, policy.NewStatic())
}

// buildFromEdges builds a graph from explicit undirected edges.
func buildFromEdges(edges []Edge, n int) (*machine.Machine, *Graph) {
	m := newM()
	return m, Build(m, edges, n, 7)
}

// hostAdj reproduces the symmetrized, deduped adjacency in host memory.
func hostAdj(edges []Edge, n int) [][]int32 {
	adj := make([][]int32, n)
	seen := make([]map[int32]bool, n)
	for i := range seen {
		seen[i] = map[int32]bool{}
	}
	add := func(u, v int32) {
		if !seen[u][v] {
			seen[u][v] = true
			adj[u] = append(adj[u], v)
		}
	}
	for _, e := range edges {
		add(e.U, e.V)
		add(e.V, e.U)
	}
	return adj
}

var diamond = []Edge{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}}

func TestBuildCSRShape(t *testing.T) {
	_, g := buildFromEdges(diamond, 5)
	if g.N != 5 || g.M != 10 { // symmetrized
		t.Fatalf("n=%d m=%d", g.N, g.M)
	}
	if g.Degree(0) != 2 || g.Degree(3) != 3 || g.Degree(4) != 1 {
		t.Fatal("degrees wrong")
	}
	// Adjacency sorted and deduped.
	var prev int32 = -1
	g.Neighbors(3, func(v int32, _ int) {
		if v <= prev {
			t.Fatal("adjacency not sorted/deduped")
		}
		prev = v
	})
	if g.FootprintPages() <= 0 {
		t.Fatal("footprint")
	}
	if g.String() == "" {
		t.Fatal("String")
	}
}

func TestBuildDedupes(t *testing.T) {
	_, g := buildFromEdges([]Edge{{0, 1}, {0, 1}, {1, 0}}, 2)
	if g.M != 2 {
		t.Fatalf("m=%d, want 2 after dedupe+symmetrize", g.M)
	}
}

func TestBFSDistancesMatchReference(t *testing.T) {
	edges := GenerateEdges(GenConfig{Vertices: 200, Degree: 4, Seed: 5})
	m, g := buildFromEdges(edges, 200)
	parent := g.BFS(0)
	_ = m
	// Reference BFS on host adjacency.
	adj := hostAdj(edges, 200)
	dist := make([]int, 200)
	for i := range dist {
		dist[i] = -1
	}
	dist[0] = 0
	queue := []int32{0}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[u] {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	for v := 0; v < 200; v++ {
		if (dist[v] == -1) != (parent[v] == -1) {
			t.Fatalf("reachability mismatch at %d", v)
		}
		if v != 0 && parent[v] >= 0 {
			// Parent must be exactly one level above.
			if dist[parent[v]] != dist[v]-1 {
				t.Fatalf("parent of %d at wrong level", v)
			}
		}
	}
	if parent[0] != 0 {
		t.Fatal("source parent")
	}
}

func TestSSSPMatchesDijkstra(t *testing.T) {
	edges := GenerateEdges(GenConfig{Vertices: 150, Degree: 4, Seed: 11})
	_, g := buildFromEdges(edges, 150)
	got := g.SSSP(0, 32)

	// Reference Dijkstra over the same CSR (reading weights via Peek-like
	// traversal must match — reconstruct weights from the graph itself).
	type arc struct {
		v int32
		w int32
	}
	adj := make([][]arc, g.N)
	for u := int32(0); int(u) < g.N; u++ {
		g.Neighbors(u, func(v int32, e int) {
			adj[u] = append(adj[u], arc{v, g.Weight(e)})
		})
	}
	dist := make([]int64, g.N)
	for i := range dist {
		dist[i] = math.MaxInt64
	}
	dist[0] = 0
	visited := make([]bool, g.N)
	for {
		u, best := -1, int64(math.MaxInt64)
		for i, d := range dist {
			if !visited[i] && d < best {
				u, best = i, d
			}
		}
		if u < 0 {
			break
		}
		visited[u] = true
		for _, a := range adj[u] {
			if nd := dist[u] + int64(a.w); nd < dist[a.v] {
				dist[a.v] = nd
			}
		}
	}
	for v := 0; v < g.N; v++ {
		want := dist[v]
		if want == math.MaxInt64 {
			if got[v] != infDist {
				t.Fatalf("vertex %d should be unreachable", v)
			}
			continue
		}
		if int64(got[v]) != want {
			t.Fatalf("sssp[%d] = %d, want %d", v, got[v], want)
		}
	}
}

func TestPageRankProperties(t *testing.T) {
	edges := GenerateEdges(GenConfig{Vertices: 300, Degree: 5, Kronecker: true, Seed: 3})
	_, g := buildFromEdges(edges, 300)
	scores := g.PageRank(10)
	var sum float64
	for _, s := range scores {
		if s < 0 {
			t.Fatal("negative score")
		}
		sum += s
	}
	// Scores sum to ≈1 (dangling mass leaks slightly; tolerance covers it).
	if sum < 0.5 || sum > 1.01 {
		t.Fatalf("score sum %v", sum)
	}
	// A hub (max degree vertex) should outscore the median vertex.
	hub, hubDeg := 0, 0
	for v := 0; v < g.N; v++ {
		if d := g.Degree(int32(v)); d > hubDeg {
			hub, hubDeg = v, d
		}
	}
	above := 0
	for _, s := range scores {
		if scores[hub] >= s {
			above++
		}
	}
	if float64(above)/float64(g.N) < 0.95 {
		t.Fatalf("hub not near the top (beats %d/%d)", above, g.N)
	}
}

func TestCCMatchesUnionFind(t *testing.T) {
	// Two deliberate components plus random edges inside each half.
	var edges []Edge
	for i := int32(0); i < 49; i++ {
		edges = append(edges, Edge{i, i + 1}) // chain 0..49
	}
	for i := int32(50); i < 99; i++ {
		edges = append(edges, Edge{i, i + 1}) // chain 50..99
	}
	_, g := buildFromEdges(edges, 100)
	comp := g.CC()
	for v := 0; v < 50; v++ {
		if comp[v] != comp[0] {
			t.Fatalf("vertex %d not in component of 0", v)
		}
	}
	for v := 50; v < 100; v++ {
		if comp[v] != comp[50] {
			t.Fatalf("vertex %d not in component of 50", v)
		}
	}
	if comp[0] == comp[50] {
		t.Fatal("components merged")
	}
}

func TestBCPathGraph(t *testing.T) {
	// Path 0-1-2-3-4: exact BC from all sources (undirected, unnormalized,
	// directed-pairs accumulation like Brandes) gives the middle vertex
	// the highest score.
	edges := []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}}
	_, g := buildFromEdges(edges, 5)
	bc := g.BC([]int32{0, 1, 2, 3, 4})
	if !(bc[2] > bc[1] && bc[2] > bc[3] && bc[1] > bc[0] && bc[3] > bc[4]) {
		t.Fatalf("path BC shape wrong: %v", bc)
	}
	// Path graph: vertex 2 lies on 0-3,0-4,1-3,1-4 (and reverses) plus
	// endpoints' pairs: exact value 8 for directed pair counting.
	if math.Abs(bc[2]-8) > 1e-9 {
		t.Fatalf("bc[2] = %v, want 8", bc[2])
	}
}

func TestTCCountsKnownGraphs(t *testing.T) {
	// A triangle plus a pendant: exactly 1 triangle.
	_, g := buildFromEdges([]Edge{{0, 1}, {1, 2}, {2, 0}, {2, 3}}, 4)
	if got := g.TC(); got != 1 {
		t.Fatalf("TC = %d, want 1", got)
	}
	// K4 has 4 triangles.
	_, k4 := buildFromEdges([]Edge{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}, 4)
	if got := k4.TC(); got != 4 {
		t.Fatalf("K4 TC = %d, want 4", got)
	}
	// A path has none.
	_, p := buildFromEdges([]Edge{{0, 1}, {1, 2}, {2, 3}}, 4)
	if got := p.TC(); got != 0 {
		t.Fatalf("path TC = %d, want 0", got)
	}
}

func TestGeneratorShapes(t *testing.T) {
	uni := GenerateEdges(GenConfig{Vertices: 1000, Degree: 8, Seed: 1})
	if len(uni) != 8000 {
		t.Fatalf("uniform edges = %d", len(uni))
	}
	for _, e := range uni {
		if e.U == e.V || e.U < 0 || int(e.U) >= 1000 || e.V < 0 || int(e.V) >= 1000 {
			t.Fatalf("bad edge %+v", e)
		}
	}
	kron := GenerateEdges(GenConfig{Vertices: 1024, Degree: 8, Kronecker: true, Seed: 1})
	if len(kron) != 8192 {
		t.Fatalf("kron edges = %d", len(kron))
	}
	// Kronecker graphs are skewed: max degree far above average.
	deg := make(map[int32]int)
	for _, e := range kron {
		deg[e.U]++
		deg[e.V]++
	}
	maxDeg := 0
	for _, d := range deg {
		if d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg < 64 { // average is 16
		t.Fatalf("kronecker max degree %d, expected heavy skew", maxDeg)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := GenerateEdges(GenConfig{Vertices: 100, Degree: 4, Kronecker: true, Seed: 9})
	b := GenerateEdges(GenConfig{Vertices: 100, Degree: 4, Kronecker: true, Seed: 9})
	if len(a) != len(b) {
		t.Fatal("length differs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("edge stream differs")
		}
	}
}

func TestGenerateBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	GenerateEdges(GenConfig{Vertices: 1, Degree: 1})
}

func TestKernelsChargeSimulatedAccesses(t *testing.T) {
	m, g := buildFromEdges(diamond, 5)
	before := m.Mem.Counters.TotalAccesses()
	g.BFS(0)
	if m.Mem.Counters.TotalAccesses() == before {
		t.Fatal("BFS issued no simulated accesses")
	}
}

func TestGenerateOnMachine(t *testing.T) {
	m := newM()
	g := Generate(m, GenConfig{Vertices: 500, Degree: 4, Seed: 2})
	if g.N != 500 || g.M == 0 {
		t.Fatal("Generate")
	}
	if m.Mem.Counters.MinorFaults == 0 {
		t.Fatal("load phase faulted nothing")
	}
}

func TestBFSUnreachableComponent(t *testing.T) {
	// Vertex 3 is isolated.
	_, g := buildFromEdges([]Edge{{0, 1}, {1, 2}}, 4)
	parent := g.BFS(0)
	if parent[3] != -1 {
		t.Fatal("isolated vertex reported reachable")
	}
	if parent[1] != 0 && parent[1] != 2 {
		t.Fatal("parent of 1")
	}
}

func TestSSSPUnreachable(t *testing.T) {
	_, g := buildFromEdges([]Edge{{0, 1}}, 3)
	dist := g.SSSP(0, 16)
	if dist[2] != infDist {
		t.Fatalf("unreachable distance = %d", dist[2])
	}
	if dist[0] != 0 {
		t.Fatal("source distance")
	}
}

func TestSSSPDeltaInvariance(t *testing.T) {
	edges := GenerateEdges(GenConfig{Vertices: 120, Degree: 4, Seed: 21})
	_, g := buildFromEdges(edges, 120)
	a := g.SSSP(0, 1)
	_, g2 := buildFromEdges(edges, 120)
	b := g2.SSSP(0, 1024)
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("delta changed distances at %d: %d vs %d", v, a[v], b[v])
		}
	}
}

func TestPageRankUniformOnRegularGraph(t *testing.T) {
	// A cycle is 2-regular: all scores equal.
	var edges []Edge
	const n = 50
	for i := int32(0); i < n; i++ {
		edges = append(edges, Edge{i, (i + 1) % n})
	}
	_, g := buildFromEdges(edges, n)
	scores := g.PageRank(20)
	for v := 1; v < n; v++ {
		if math.Abs(scores[v]-scores[0]) > 1e-9 {
			t.Fatalf("regular graph scores differ: %v vs %v", scores[v], scores[0])
		}
	}
}

func TestCCSingletons(t *testing.T) {
	// No edges at all: every vertex is its own component.
	_, g := buildFromEdges([]Edge{{0, 1}}, 5) // vertices 2,3,4 isolated
	comp := g.CC()
	if comp[2] != 2 || comp[3] != 3 || comp[4] != 4 {
		t.Fatalf("singletons mislabeled: %v", comp)
	}
	if comp[0] != comp[1] {
		t.Fatal("edge endpoints split")
	}
}

func TestBCStarGraph(t *testing.T) {
	// Star: center 0 lies on every pair path; leaves have zero BC.
	edges := []Edge{{0, 1}, {0, 2}, {0, 3}, {0, 4}}
	_, g := buildFromEdges(edges, 5)
	bc := g.BC([]int32{0, 1, 2, 3, 4})
	if bc[0] <= 0 {
		t.Fatal("center has no centrality")
	}
	for v := 1; v < 5; v++ {
		if bc[v] != 0 {
			t.Fatalf("leaf %d has centrality %v", v, bc[v])
		}
	}
	// Exact: center lies on 4×3 = 12 directed leaf pairs.
	if math.Abs(bc[0]-12) > 1e-9 {
		t.Fatalf("bc[0] = %v, want 12", bc[0])
	}
}

// The heap a built graph retains, per CSR entry, at gapbs-pr's shape. The
// arrays alone are 8 B of offsets per vertex, 4 B of targets and 1 B of
// weight per entry, ≈ 5.5 B per entry; the machine's page descriptors and
// page tables for the touched pages add ≈ 0.2 B. It reads 5.7 B, and 8.7 B
// with the weights held as int32 on the host, so the 6.5 B bound sits
// 0.8 B above the one and 2.2 B below the other.
func TestBuildHostFootprint(t *testing.T) {
	cfg := GenConfig{Vertices: 96_000, Degree: 8, Kronecker: true, Seed: 5}
	edges := GenerateEdges(cfg)
	m := newM()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g := Build(m, edges, cfg.Vertices, cfg.Seed)
	runtime.GC()
	runtime.ReadMemStats(&after)
	perEntry := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(g.M)
	t.Logf("%d CSR entries, %.2f B retained per entry", g.M, perEntry)
	if perEntry > 6.5 {
		t.Fatalf("the graph retains %.2f B per CSR entry, want at most 6.5", perEntry)
	}
	runtime.KeepAlive(g)
	runtime.KeepAlive(edges)
	runtime.KeepAlive(m)
}
