package analytics

import (
	"math"

	"graphmem/internal/graph"
)

// prDamping is the standard PageRank damping factor.
const prDamping = 0.85

// runPR executes push-based PageRank. Each property entry holds the
// (rank, next-rank) pair for one vertex, so the irregular "scatter"
// update next[w] += contrib(v) lands in the same property array whose
// prefix the selective-THP policy covers. Iteration stops when the
// largest per-vertex rank change falls below eps, or after maxIters.
func (img *Image) runPR(s *stream, eps float64, maxIters int) ([]float64, int) {
	g := img.G
	n := g.N

	rank := make([]float64, n)
	nextRank := make([]float64, n)
	init := 1 / float64(n)
	base := (1 - prDamping) / float64(n)
	for i := range rank {
		rank[i] = init
	}

	// Simulated addresses: rank at propAddr(v), next-rank at +8.
	iters := 0
	for iters < maxIters {
		iters++
		for i := range nextRank {
			nextRank[i] = 0
		}
		for v := uint32(0); int(v) < n; v++ {
			s.run(img.vertexAddr(v), 2, graph.VertexEntryBytes)
			lo, hi := g.Offsets[v], g.Offsets[v+1]
			deg := hi - lo
			if deg == 0 {
				continue
			}
			s.access(img.propAddr(v)) // sequential read of rank[v]
			contrib := prDamping * rank[v] / float64(deg)
			// The neighbor IDs stream from the edge array in one run.
			s.run(img.edgeAddr(lo), int(deg), graph.EdgeEntryBytes)
			// Irregular read-modify-write scatter of next-rank[w].
			for e := lo; e < hi; e++ {
				w := g.Neighbors[e]
				s.access(img.propAddr(w) + 8)
				nextRank[w] += contrib
			}
		}
		// Sequential pass folding next into rank: one property write
		// per vertex, streamed as a single bulk run.
		s.run(img.propAddr(0), n, PropEntryBytes(img.App))
		var maxDelta float64
		for v := 0; v < n; v++ {
			nr := nextRank[v] + base
			if d := math.Abs(nr - rank[v]); d > maxDelta {
				maxDelta = d
			}
			rank[v] = nr
		}
		if maxDelta < eps {
			break
		}
	}
	return rank, iters
}
