package graph

import "math"

// The six GAPBS kernels. Each charges its data-structure traffic to the
// simulated memory; small control state (frontier queues, bucket lists)
// lives in host memory, standing in for the cache-resident working set a
// tuned implementation keeps hot.

// infDist marks unreached vertices.
const infDist = math.MaxInt32

// BFS runs breadth-first search from source and returns the parent array
// (host copy). Unreached vertices have parent -1.
func (g *Graph) BFS(source int32) []int32 {
	parent := vertexArray[int32](g, "bfs-parent")
	for i := 0; i < g.N; i++ {
		parent.Set(i, -1)
	}
	parent.Set(int(source), source)
	frontier := []int32{source}
	for len(frontier) > 0 {
		var next []int32
		for _, u := range frontier {
			g.Neighbors(u, func(v int32, _ int) {
				if parent.Get(int(v)) == -1 {
					parent.Set(int(v), u)
					next = append(next, v)
				}
			})
		}
		frontier = next
	}
	out := make([]int32, g.N)
	for i := range out {
		out[i] = parent.Peek(i)
	}
	return out
}

// SSSP runs delta-stepping single-source shortest paths from source over
// the weighted graph and returns the distance array; unreached vertices
// get infDist.
func (g *Graph) SSSP(source int32, delta int32) []int32 {
	if delta <= 0 {
		delta = 64
	}
	dist := vertexArray[int32](g, "sssp-dist")
	for i := 0; i < g.N; i++ {
		dist.Set(i, infDist)
	}
	dist.Set(int(source), 0)

	buckets := map[int][]int32{0: {source}}
	maxBucket := 0
	for b := 0; b <= maxBucket; b++ {
		for len(buckets[b]) > 0 {
			work := buckets[b]
			buckets[b] = nil
			for _, u := range work {
				du := dist.Get(int(u))
				if int(du/delta) != b {
					continue // stale entry
				}
				g.Neighbors(u, func(v int32, e int) {
					nd := du + g.Weight(e)
					if nd < dist.Get(int(v)) {
						dist.Set(int(v), nd)
						nb := int(nd / delta)
						buckets[nb] = append(buckets[nb], v)
						if nb > maxBucket {
							maxBucket = nb
						}
					}
				})
			}
		}
	}
	out := make([]int32, g.N)
	for i := range out {
		out[i] = dist.Peek(i)
	}
	return out
}

// PageRank runs iters pull-style PageRank iterations with damping 0.85 and
// returns the scores.
func (g *Graph) PageRank(iters int) []float64 {
	const damping = 0.85
	scores := vertexArray[float64](g, "pr-scores")
	outgoing := vertexArray[float64](g, "pr-contrib")
	init := 1 / float64(g.N)
	for i := 0; i < g.N; i++ {
		scores.Set(i, init)
	}
	for it := 0; it < iters; it++ {
		base := (1 - damping) / float64(g.N)
		for u := 0; u < g.N; u++ {
			d := g.Degree(int32(u))
			if d > 0 {
				outgoing.Set(u, scores.Get(u)/float64(d))
			} else {
				outgoing.Set(u, 0)
			}
		}
		for u := 0; u < g.N; u++ {
			var sum float64
			g.Neighbors(int32(u), func(v int32, _ int) {
				sum += outgoing.Get(int(v))
			})
			scores.Set(u, base+damping*sum)
		}
	}
	out := make([]float64, g.N)
	for i := range out {
		out[i] = scores.Peek(i)
	}
	return out
}

// CC computes connected components by label propagation and returns the
// component label of every vertex (the minimum vertex id in its
// component).
func (g *Graph) CC() []int32 {
	comp := vertexArray[int32](g, "cc-comp")
	for i := 0; i < g.N; i++ {
		comp.Set(i, int32(i))
	}
	for changed := true; changed; {
		changed = false
		for u := 0; u < g.N; u++ {
			cu := comp.Get(u)
			best := cu
			g.Neighbors(int32(u), func(v int32, _ int) {
				if cv := comp.Get(int(v)); cv < best {
					best = cv
				}
			})
			if best < cu {
				comp.Set(u, best)
				changed = true
			}
		}
	}
	out := make([]int32, g.N)
	for i := range out {
		out[i] = comp.Peek(i)
	}
	return out
}

// BC computes approximate betweenness centrality using Brandes' algorithm
// from the given source vertices and returns the centrality scores.
func (g *Graph) BC(sources []int32) []float64 {
	bc := vertexArray[float64](g, "bc-scores")
	sigma := vertexArray[float64](g, "bc-sigma")
	depth := vertexArray[int32](g, "bc-depth")
	delta := vertexArray[float64](g, "bc-delta")
	for i := 0; i < g.N; i++ {
		bc.Set(i, 0)
	}
	for _, s := range sources {
		for i := 0; i < g.N; i++ {
			sigma.Set(i, 0)
			depth.Set(i, -1)
			delta.Set(i, 0)
		}
		sigma.Set(int(s), 1)
		depth.Set(int(s), 0)
		levels := [][]int32{{s}}
		for len(levels[len(levels)-1]) > 0 {
			cur := levels[len(levels)-1]
			var next []int32
			d := int32(len(levels) - 1)
			for _, u := range cur {
				su := sigma.Get(int(u))
				g.Neighbors(u, func(v int32, _ int) {
					dv := depth.Get(int(v))
					if dv == -1 {
						depth.Set(int(v), d+1)
						dv = d + 1
						next = append(next, v)
					}
					if dv == d+1 {
						sigma.Set(int(v), sigma.Get(int(v))+su)
					}
				})
			}
			levels = append(levels, next)
		}
		// Dependency accumulation, deepest level first.
		for l := len(levels) - 1; l > 0; l-- {
			for _, u := range levels[l] {
				du := depth.Get(int(u))
				var acc float64
				g.Neighbors(u, func(v int32, _ int) {
					if depth.Get(int(v)) == du+1 {
						sv := sigma.Get(int(v))
						if sv > 0 {
							acc += sigma.Get(int(u)) / sv * (1 + delta.Get(int(v)))
						}
					}
				})
				delta.Set(int(u), acc)
				if u != s {
					bc.Set(int(u), bc.Get(int(u))+acc)
				}
			}
		}
	}
	out := make([]float64, g.N)
	for i := range out {
		out[i] = bc.Peek(i)
	}
	return out
}

// TC counts triangles using ordered adjacency intersection (each triangle
// counted once).
func (g *Graph) TC() int64 {
	var count int64
	for u := int32(0); int(u) < g.N; u++ {
		// Gather u's larger neighbors (ordered adjacency).
		var uAdj []int32
		g.Neighbors(u, func(v int32, _ int) {
			if v > u {
				uAdj = append(uAdj, v)
			}
		})
		for _, v := range uAdj {
			// Intersect uAdj with v's larger neighbors.
			var vAdj []int32
			g.Neighbors(v, func(w int32, _ int) {
				if w > v {
					vAdj = append(vAdj, w)
				}
			})
			i, j := 0, 0
			for i < len(uAdj) && j < len(vAdj) {
				switch {
				case uAdj[i] < vAdj[j]:
					i++
				case uAdj[i] > vAdj[j]:
					j++
				default:
					count++
					i++
					j++
				}
			}
		}
	}
	return count
}
