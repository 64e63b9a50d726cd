package analytics

import "graphmem/internal/graph"

// Betweenness Centrality is the second application §3.2 names as built
// on BFS. This is the k-source approximation of Brandes' algorithm:
// from each of k sampled sources, a forward BFS computes shortest-path
// counts (sigma) and a reverse sweep accumulates dependencies (delta)
// onto the centrality scores.
//
// The property array holds per-vertex algorithm state — (dist, sigma,
// delta) — in 24-byte entries, all updated through the same
// pointer-indirect neighbor accesses as BFS, tripling the irregular
// bytes per touch: BC is the most property-hungry workload in the
// repository.

// bcPropEntryBytes is the BC property entry size (three 8-byte fields).
const bcPropEntryBytes = 24

// bcSources picks k (at least 1) deterministic, distinct, non-isolated
// source vertices spread over the degree distribution.
func bcSources(g *graph.Graph, k int) []uint32 {
	var sources []uint32
	stride := g.N/k + 1
	for v := 0; v < g.N && len(sources) < k; v += stride {
		// Walk forward to the next vertex with outgoing edges.
		for u := v; u < g.N; u++ {
			if g.OutDegree(uint32(u)) > 0 {
				sources = append(sources, uint32(u))
				break
			}
		}
	}
	if len(sources) == 0 {
		sources = []uint32{g.MaxDegreeVertex()}
	}
	return sources
}

// runBC executes k-source Brandes against the simulated memory system
// and returns the (unnormalized) centrality scores. Both phases'
// per-neighbor dist/sigma/delta accesses stream to s exactly as in BFS.
func (img *Image) runBC(s *stream, k int) []float64 {
	g := img.G
	n := g.N

	bc := make([]float64, n)
	dist := make([]int32, n)
	sigma := make([]float64, n)
	delta := make([]float64, n)

	// visit order stack (vertices in BFS discovery order) lives in the
	// worklist array; the frontier reuses its second half.
	order := make([]uint32, 0, n)

	distAddr := func(v uint32) uint64 { return img.propAddr(v) }
	sigmaAddr := func(v uint32) uint64 { return img.propAddr(v) + 8 }
	deltaAddr := func(v uint32) uint64 { return img.propAddr(v) + 16 }

	for _, src := range bcSources(g, k) {
		// Reset per-source state: streaming pass over the property
		// array, one bulk run of dist-field writes.
		s.run(distAddr(0), n, bcPropEntryBytes)
		for v := 0; v < n; v++ {
			dist[v] = -1
			sigma[v] = 0
			delta[v] = 0
		}
		dist[src] = 0
		sigma[src] = 1
		s.access(sigmaAddr(src))

		order = order[:0]
		cur := []uint32{src}
		s.access(img.workAddr(0, 0))
		level := int32(0)
		buf := 0
		for len(cur) > 0 {
			level++
			var next []uint32
			for i, v := range cur {
				s.access(img.workAddr(buf, i))
				order = append(order, v)
				s.run(img.vertexAddr(v), 2, graph.VertexEntryBytes)
				sv := sigma[v]
				lo, hi := g.Offsets[v], g.Offsets[v+1]
				s.run(img.edgeAddr(lo), int(hi-lo), graph.EdgeEntryBytes)
				for e := lo; e < hi; e++ {
					w := g.Neighbors[e]
					s.access(distAddr(w))
					if dist[w] == -1 {
						dist[w] = level
						s.access(img.workAddr(1-buf, len(next)))
						next = append(next, w)
					}
					if dist[w] == level {
						sigma[w] += sv
						s.access(sigmaAddr(w))
					}
				}
			}
			cur = next
			buf = 1 - buf
		}

		// Reverse sweep: process vertices farthest-first; every
		// successor w (at dist+1) already carries its final dependency,
		// so v accumulates sigma(v)/sigma(w) * (1 + delta(w)) over its
		// successors (Brandes' accumulation over out-edges).
		for i := len(order) - 1; i >= 0; i-- {
			v := order[i]
			s.access(img.workAddr(0, i))
			s.run(img.vertexAddr(v), 2, graph.VertexEntryBytes)
			dv := dist[v]
			sv := sigma[v]
			s.access(sigmaAddr(v))
			acc := 0.0
			lo, hi := g.Offsets[v], g.Offsets[v+1]
			s.run(img.edgeAddr(lo), int(hi-lo), graph.EdgeEntryBytes)
			for e := lo; e < hi; e++ {
				w := g.Neighbors[e]
				s.access(distAddr(w))
				if dist[w] == dv+1 {
					s.access(sigmaAddr(w))
					s.access(deltaAddr(w))
					acc += sv / sigma[w] * (1 + delta[w])
				}
			}
			delta[v] = acc
			s.access(deltaAddr(v))
			if v != src {
				bc[v] += delta[v]
			}
		}
	}
	return bc
}

// NativeBC is the uninstrumented reference implementation with
// identical source selection, default included, and accumulation order.
func NativeBC(g *graph.Graph, k int) []float64 {
	k = RunOptions{BCSources: k}.withDefaults().BCSources
	n := g.N
	bc := make([]float64, n)
	dist := make([]int32, n)
	sigma := make([]float64, n)
	delta := make([]float64, n)
	order := make([]uint32, 0, n)

	for _, src := range bcSources(g, k) {
		for v := 0; v < n; v++ {
			dist[v] = -1
			sigma[v] = 0
			delta[v] = 0
		}
		dist[src] = 0
		sigma[src] = 1
		order = order[:0]
		cur := []uint32{src}
		level := int32(0)
		for len(cur) > 0 {
			level++
			var next []uint32
			for _, v := range cur {
				order = append(order, v)
				sv := sigma[v]
				for e := g.Offsets[v]; e < g.Offsets[v+1]; e++ {
					w := g.Neighbors[e]
					if dist[w] == -1 {
						dist[w] = level
						next = append(next, w)
					}
					if dist[w] == level {
						sigma[w] += sv
					}
				}
			}
			cur = next
		}
		for i := len(order) - 1; i >= 0; i-- {
			v := order[i]
			dv := dist[v]
			sv := sigma[v]
			acc := 0.0
			for e := g.Offsets[v]; e < g.Offsets[v+1]; e++ {
				w := g.Neighbors[e]
				if dist[w] == dv+1 {
					acc += sv / sigma[w] * (1 + delta[w])
				}
			}
			delta[v] = acc
			if v != src {
				bc[v] += delta[v]
			}
		}
	}
	return bc
}
