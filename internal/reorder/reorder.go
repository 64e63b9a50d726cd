// Package reorder implements the vertex reordering techniques of §5 of
// the paper, principally Degree-Based Grouping (DBG, Faldu et al.,
// IISWC'19): a lightweight coarse sort that bins vertices by access
// frequency so the hot set occupies a dense prefix of the property
// array — the prerequisite for covering it with a handful of huge pages.
package reorder

import (
	"cmp"
	"slices"

	"graphmem/internal/check"
	"graphmem/internal/graph"
)

// Method names a reordering technique.
type Method string

const (
	// Identity leaves vertex IDs untouched (the "original" datasets).
	Identity Method = "orig"
	// DBG is Degree-Based Grouping with the paper's 8 bins.
	DBG Method = "dbg"
	// FullSort is a complete descending sort by degree; finer than DBG
	// but destroys structure and costs O(N log N).
	FullSort Method = "sort"
	// Random scatters vertices uniformly; the adversarial control.
	Random Method = "rand"
)

// DBGBinFactors are the minimum-degree multipliers (of the average
// degree d) for the 8 DBG bins, hottest first: 32d, 16d, 8d, 4d, 2d, d,
// d/2, and 0.
var DBGBinFactors = []float64{32, 16, 8, 4, 2, 1, 0.5, 0}

// Permutation computes newID = perm[oldID] for the chosen method, based
// on the in-degree of each vertex (the property-array access frequency
// in push-based kernels).
//
// Cost returns alongside the permutation the number of vertex-array and
// edge-array traversal elements the preprocessing touched, so callers
// can charge preprocessing time the way the paper accounts for it
// (three O(N) traversals plus the O(M) in-degree count).
type Cost struct {
	VertexTraversals int // elements visited across vertex-indexed passes
	EdgeTraversals   int // elements visited across edge-indexed passes
}

// Compute returns the permutation for method m over graph g.
func Compute(g *graph.Graph, m Method, seed uint64) ([]uint32, Cost) {
	switch m {
	case Identity:
		p := make([]uint32, g.N)
		for i := range p {
			p[i] = uint32(i)
		}
		return p, Cost{}
	case DBG:
		return dbg(g)
	case FullSort:
		return fullSort(g)
	case Random:
		return randomPerm(g.N, seed), Cost{VertexTraversals: g.N}
	default:
		panic(check.Failf("reorder: unknown method %s", m))
	}
}

// dbg implements Degree-Based Grouping. Traversal 1 computes degrees
// (O(M) edge pass), traversal 2 assigns each vertex to a bin (O(N)),
// traversal 3 emits new IDs bin by bin in stable order (O(N)).
func dbg(g *graph.Graph) ([]uint32, Cost) {
	in := g.InDegrees() // traversal 1
	d := g.AvgDegree()

	thresholds := make([]uint32, len(DBGBinFactors))
	for i, f := range DBGBinFactors {
		thresholds[i] = uint32(f * d)
	}

	// Traversal 2: bin assignment. Vertices within a bin keep their
	// relative order (the paper notes intra-bin order does not matter;
	// stability keeps the result deterministic and preserves whatever
	// community structure the original ordering had).
	binOf := make([]uint8, g.N)
	counts := make([]int, len(thresholds))
	for v := 0; v < g.N; v++ {
		b := len(thresholds) - 1
		for i, t := range thresholds {
			if in[v] >= t && (t > 0 || i == len(thresholds)-1) {
				b = i
				break
			}
		}
		binOf[v] = uint8(b)
		counts[b]++
	}

	// Traversal 3: prefix-sum the bins and assign new IDs.
	next := make([]uint32, len(counts))
	acc := uint32(0)
	for b, c := range counts {
		next[b] = acc
		acc += uint32(c)
	}
	perm := make([]uint32, g.N)
	for v := 0; v < g.N; v++ {
		b := binOf[v]
		perm[v] = next[b]
		next[b]++
	}
	return perm, Cost{VertexTraversals: 2 * g.N, EdgeTraversals: g.NumEdges()}
}

// fullSort orders vertices by strictly descending in-degree (stable).
func fullSort(g *graph.Graph) ([]uint32, Cost) {
	in := g.InDegrees()
	order := make([]uint32, g.N)
	for i := range order {
		order[i] = uint32(i)
	}
	slices.SortStableFunc(order, func(a, b uint32) int { return cmp.Compare(in[b], in[a]) })
	perm := make([]uint32, g.N)
	for newID, old := range order {
		perm[old] = uint32(newID)
	}
	return perm, Cost{VertexTraversals: 2 * g.N, EdgeTraversals: g.NumEdges()}
}

// randomPerm is a seeded Fisher–Yates permutation (SplitMix64 core,
// duplicated from package gen to keep the packages independent).
func randomPerm(n int, seed uint64) []uint32 {
	state := seed + 0x9E3779B97F4A7C15
	next := func() uint64 {
		state += 0x9E3779B97F4A7C15
		z := state
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	p := make([]uint32, n)
	for i := range p {
		p[i] = uint32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Apply relabels g with the method's permutation and returns the new
// graph plus the preprocessing cost.
func Apply(g *graph.Graph, m Method, seed uint64) (*graph.Graph, Cost) {
	perm, c := Compute(g, m, seed)
	ng, err := g.Relabel(perm)
	if err != nil {
		panic(check.Failf("reorder: computed permutation invalid: %v", err))
	}
	// Relabeling itself is the third paper traversal (re-emitting IDs):
	// one vertex pass plus one edge pass.
	c.VertexTraversals += g.N
	c.EdgeTraversals += g.NumEdges()
	return ng, c
}

// Partition splits g's vertex range into s contiguous windows balanced
// by scatter work (1 + out-degree per vertex: every vertex is popped
// once per appearance on a worklist and then scans its out-edges), for
// the sharded machine engine's owner-computes decomposition. It returns
// s+1 ascending cuts — shard i owns vertices [cuts[i], cuts[i+1]) —
// plus the preprocessing cost of the single degree scan that sized the
// windows. Cuts are a pure function of the graph and s: deterministic,
// seed-free. Shards beyond the vertex count come out empty (cuts
// repeat g.N), so any s is valid on any graph; s ≤ 1 yields the
// trivial one-window partition.
func Partition(g *graph.Graph, s int) ([]uint32, Cost) {
	if s < 1 {
		s = 1
	}
	cuts := make([]uint32, s+1)
	total := uint64(g.N) + uint64(g.NumEdges())
	var acc uint64
	sh := 1
	for v := 0; v < g.N && sh < s; v++ {
		acc += 1 + uint64(g.OutDegree(uint32(v)))
		// Cut after v once this shard holds its fair share of the
		// remaining work (ceil division keeps later shards from
		// starving on skewed prefixes).
		// (a whale vertex can satisfy several boundaries at once,
		// leaving the windows between them empty).
		for sh < s && acc*uint64(s) >= total*uint64(sh) {
			cuts[sh] = uint32(v + 1)
			sh++
		}
	}
	for ; sh <= s; sh++ {
		cuts[sh] = uint32(g.N)
	}
	return cuts, Cost{VertexTraversals: g.N}
}

// HotPrefixCoverage reports what fraction of all property-array accesses
// (in-edges) target the first `frac` of vertex IDs — the quantity that
// determines how much of the TLB-miss mass a selective huge page prefix
// can capture.
func HotPrefixCoverage(g *graph.Graph, frac float64) float64 {
	if frac <= 0 {
		return 0
	}
	if frac >= 1 {
		return 1
	}
	in := g.InDegrees()
	cut := int(frac * float64(g.N))
	var pre, all uint64
	for v, d := range in {
		all += uint64(d)
		if v < cut {
			pre += uint64(d)
		}
	}
	if all == 0 {
		return 0
	}
	return float64(pre) / float64(all)
}
