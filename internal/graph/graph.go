// Package graph provides the Compressed Sparse Row graph representation
// used by every workload in the paper: a vertex (offset) array, an edge
// (neighbor) array, an optional values (weight) array, and — at run time
// — a property array owned by the algorithm.
package graph

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"

	"graphmem/internal/sched"
)

// Element sizes in bytes, used for footprint computations and simulated
// address arithmetic. They match the paper's data layout: 8-byte vertex
// offsets, 4-byte neighbor IDs, 4-byte edge weights, 8-byte property
// entries.
const (
	VertexEntryBytes = 8
	EdgeEntryBytes   = 4
	ValueEntryBytes  = 4
	PropEntryBytes   = 8
)

// Edge is one directed edge with an optional weight.
type Edge struct {
	Src, Dst uint32
	Weight   uint32
}

// Graph is a directed graph in CSR form. Offsets has N+1 entries;
// Neighbors[Offsets[v]:Offsets[v+1]] are v's out-neighbors. Weights is
// either nil (unweighted) or parallel to Neighbors.
type Graph struct {
	N         int
	Offsets   []uint64
	Neighbors []uint32
	Weights   []uint32
}

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return len(g.Neighbors) }

// OutDegree returns v's out-degree.
func (g *Graph) OutDegree(v uint32) int {
	return int(g.Offsets[v+1] - g.Offsets[v])
}

// AvgDegree returns the mean out-degree.
func (g *Graph) AvgDegree() float64 {
	if g.N == 0 {
		return 0
	}
	return float64(g.NumEdges()) / float64(g.N)
}

// Weighted reports whether the graph carries edge weights.
func (g *Graph) Weighted() bool { return g.Weights != nil }

// FootprintBytes returns the graph's resident data size plus the
// property array an algorithm would allocate — the paper's "memory
// footprint" for one application/dataset configuration.
func (g *Graph) FootprintBytes() uint64 {
	b := uint64(len(g.Offsets)) * VertexEntryBytes
	b += uint64(len(g.Neighbors)) * EdgeEntryBytes
	if g.Weights != nil {
		b += uint64(len(g.Weights)) * ValueEntryBytes
	}
	b += uint64(g.N) * PropEntryBytes
	return b
}

// InDegrees computes the in-degree of every vertex. In push-based
// kernels the property array entry for vertex v is touched once per
// in-edge, so in-degree is the access-frequency ("hotness") signal the
// paper's preprocessing bins on.
func (g *Graph) InDegrees() []uint32 {
	in := make([]uint32, g.N)
	for _, w := range g.Neighbors {
		in[w]++
	}
	return in
}

// FromEdges builds a CSR graph from an edge list over n vertices. Edges
// are kept in input order within each source bucket (counting sort), so
// construction is deterministic. weighted controls whether the Weights
// array is materialized (from Edge.Weight).
func FromEdges(n int, edges []Edge, weighted bool) (*Graph, error) {
	if n <= 0 {
		return nil, errors.New("graph: non-positive vertex count")
	}
	g := &Graph{
		N:         n,
		Offsets:   make([]uint64, n+1),
		Neighbors: make([]uint32, len(edges)),
	}
	if weighted {
		g.Weights = make([]uint32, len(edges))
	}
	for _, e := range edges {
		if int(e.Src) >= n || int(e.Dst) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range n=%d", e.Src, e.Dst, n)
		}
		g.Offsets[e.Src+1]++
	}
	for v := 0; v < n; v++ {
		g.Offsets[v+1] += g.Offsets[v]
	}
	cursor := make([]uint64, n)
	copy(cursor, g.Offsets[:n])
	for _, e := range edges {
		i := cursor[e.Src]
		cursor[e.Src]++
		g.Neighbors[i] = e.Dst
		if weighted {
			g.Weights[i] = e.Weight
		}
	}
	return g, nil
}

// Validate checks CSR structural invariants.
func (g *Graph) Validate() error {
	if len(g.Offsets) != g.N+1 {
		return fmt.Errorf("graph: offsets length %d != N+1=%d", len(g.Offsets), g.N+1)
	}
	if g.Offsets[0] != 0 {
		return errors.New("graph: offsets[0] != 0")
	}
	for v := 0; v < g.N; v++ {
		if g.Offsets[v+1] < g.Offsets[v] {
			return fmt.Errorf("graph: offsets not monotone at %d", v)
		}
	}
	if g.Offsets[g.N] != uint64(len(g.Neighbors)) {
		return fmt.Errorf("graph: offsets[N]=%d != edges=%d", g.Offsets[g.N], len(g.Neighbors))
	}
	for i, w := range g.Neighbors {
		if int(w) >= g.N {
			return fmt.Errorf("graph: neighbor %d at %d out of range", w, i)
		}
	}
	if g.Weights != nil && len(g.Weights) != len(g.Neighbors) {
		return fmt.Errorf("graph: weights length %d != edges %d", len(g.Weights), len(g.Neighbors))
	}
	return nil
}

// Relabel returns a new graph where every vertex v becomes perm[v].
// perm must be a bijection on [0,N). Neighbor lists of the new graph are
// sorted to keep the result canonical.
func (g *Graph) Relabel(perm []uint32) (*Graph, error) {
	if len(perm) != g.N {
		return nil, fmt.Errorf("graph: perm length %d != N %d", len(perm), g.N)
	}
	seen := make([]bool, g.N)
	for _, p := range perm {
		if int(p) >= g.N || seen[p] {
			return nil, errors.New("graph: perm is not a bijection")
		}
		seen[p] = true
	}
	ng := &Graph{
		N:         g.N,
		Offsets:   make([]uint64, g.N+1),
		Neighbors: make([]uint32, len(g.Neighbors)),
	}
	if g.Weights != nil {
		ng.Weights = make([]uint32, len(g.Weights))
	}
	// New degree of perm[v] = old degree of v.
	for v := 0; v < g.N; v++ {
		ng.Offsets[perm[v]+1] = g.Offsets[v+1] - g.Offsets[v]
	}
	for v := 0; v < g.N; v++ {
		ng.Offsets[v+1] += ng.Offsets[v]
	}
	// perm is a bijection, so distinct old vertices fill disjoint new
	// rows: workers take contiguous ranges of old IDs, balanced by rows
	// plus edges.
	sched.Chunks(g.N+len(g.Neighbors), relabelChunk, func(lo, hi int) {
		var pairs []uint64 // a weighted row's (neighbor, weight) pairs
		for v := g.rowAt(lo); v < g.rowAt(hi); v++ {
			old := g.Neighbors[g.Offsets[v]:g.Offsets[v+1]]
			nv := perm[v]
			row := ng.Neighbors[ng.Offsets[nv]:ng.Offsets[nv+1]]
			// Sort each adjacency run (with weights attached) for a
			// canonical result.
			if g.Weights == nil {
				for i, w := range old {
					row[i] = perm[w]
				}
				slices.Sort(row)
				continue
			}
			// Repeated neighbors keep their weights in the order a
			// pdqsort keyed on the neighbor alone leaves them
			// (slices.SortFunc and sort.Slice run the same one); the
			// weighted goldens pin that order.
			pairs = pairs[:0]
			for i, w := range old {
				pairs = append(pairs, uint64(perm[w])<<32|uint64(g.Weights[g.Offsets[v]+uint64(i)]))
			}
			slices.SortFunc(pairs, func(a, b uint64) int { return cmp.Compare(a>>32, b>>32) })
			wt := ng.Weights[ng.Offsets[nv]:ng.Offsets[nv+1]]
			for i, p := range pairs {
				row[i], wt[i] = uint32(p>>32), uint32(p)
			}
		}
	})
	return ng, nil
}

// relabelChunk is the fewest rows plus edges Relabel hands one worker.
const relabelChunk = 1 << 15

// rowAt returns the first vertex v with v + Offsets[v] ≥ x, so cuts of
// [0, N+M) map to vertex ranges balanced by rows plus edges. rowAt(0)
// is 0 and rowAt(N+M) is N.
func (g *Graph) rowAt(x int) int {
	return sort.Search(g.N, func(v int) bool { return v+int(g.Offsets[v]) >= x })
}

// MaxDegreeVertex returns the vertex with the largest out-degree
// (lowest ID wins ties); it is the canonical BFS/SSSP root in the
// experiments, guaranteeing a large traversal.
func (g *Graph) MaxDegreeVertex() uint32 {
	best, bestDeg := uint32(0), -1
	for v := 0; v < g.N; v++ {
		d := g.OutDegree(uint32(v))
		if d > bestDeg {
			best, bestDeg = uint32(v), d
		}
	}
	return best
}
