package analytics

import "graphmem/internal/graph"

// runBFS executes the paper's push-based frontier BFS (Fig. 4's
// programming model): iterate the current worklist, read each vertex's
// CSR offsets, stream its neighbor IDs from the edge array (one bulk
// run), and perform the pointer-indirect read-modify-write of the
// property array entry for every unvisited neighbor. Every access goes
// to s in exact scalar order; the per-neighbor property reads/writes
// and frontier pushes reach the machine as gather batches.
func (img *Image) runBFS(s *stream, root uint32) []int64 {
	g := img.G

	hops := make([]int64, g.N)
	for i := range hops {
		hops[i] = -1
	}
	hops[root] = 0

	cur := make([]uint32, 0, g.N)
	next := make([]uint32, 0, g.N)
	cur = append(cur, root)
	s.access(img.workAddr(0, 0)) // push root
	s.access(img.propAddr(root)) // initialize root's property entry

	level := int64(0)
	buf := 0
	for len(cur) > 0 {
		level++
		next = next[:0]
		for i, v := range cur {
			s.access(img.workAddr(buf, i)) // pop v from the worklist
			// Two adjacent offset reads delimit the neighbor run.
			s.run(img.vertexAddr(v), 2, graph.VertexEntryBytes)
			lo, hi := g.Offsets[v], g.Offsets[v+1]
			// Sequential neighbor fetch: the whole run streams from the
			// edge array before the per-neighbor property work.
			s.run(img.edgeAddr(lo), int(hi-lo), graph.EdgeEntryBytes)
			for e := lo; e < hi; e++ {
				w := g.Neighbors[e]
				s.access(img.propAddr(w)) // irregular property read
				if hops[w] == -1 {
					hops[w] = level
					s.access(img.propAddr(w)) // property write
					s.access(img.workAddr(1-buf, len(next)))
					next = append(next, w)
				}
			}
		}
		cur, next = next, cur
		buf = 1 - buf
	}
	return hops
}
