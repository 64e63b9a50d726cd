package analytics

import "graphmem/internal/graph"

// runSSSP executes frontier-based Bellman–Ford relaxation: like BFS but
// reading the values (weight) array alongside each neighbor and
// re-enqueueing vertices whose distance improves. A membership bitmap
// deduplicates frontier insertions, as work-efficient CPU
// implementations do. The per-neighbor relaxation accesses stream to s
// exactly as in BFS.
func (img *Image) runSSSP(s *stream, root uint32) []int64 {
	g := img.G

	dist := make([]int64, g.N)
	for i := range dist {
		dist[i] = -1 // unreached
	}
	dist[root] = 0

	inNext := make([]bool, g.N)
	cur := make([]uint32, 0, g.N)
	next := make([]uint32, 0, g.N)
	cur = append(cur, root)
	s.access(img.workAddr(0, 0))
	s.access(img.propAddr(root))

	buf := 0
	for len(cur) > 0 {
		next = next[:0]
		for i, v := range cur {
			s.access(img.workAddr(buf, i))
			s.run(img.vertexAddr(v), 2, graph.VertexEntryBytes)
			dv := dist[v]
			lo, hi := g.Offsets[v], g.Offsets[v+1]
			// The neighbor IDs and their weights stream sequentially
			// from the edge and values arrays before the relaxations.
			s.run(img.edgeAddr(lo), int(hi-lo), graph.EdgeEntryBytes)
			s.run(img.valueAddr(lo), int(hi-lo), graph.ValueEntryBytes)
			for e := lo; e < hi; e++ {
				w := g.Neighbors[e]
				nd := dv + int64(g.Weights[e])
				s.access(img.propAddr(w)) // property read
				if dist[w] == -1 || nd < dist[w] {
					dist[w] = nd
					s.access(img.propAddr(w)) // property write
					if !inNext[w] {
						inNext[w] = true
						s.access(img.workAddr(1-buf, len(next)))
						next = append(next, w)
					}
				}
			}
		}
		for _, w := range next {
			inNext[w] = false
		}
		cur, next = next, cur
		buf = 1 - buf
	}
	return dist
}
