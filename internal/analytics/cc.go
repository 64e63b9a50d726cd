package analytics

import "graphmem/internal/graph"

// Connected Components is the paper's canonical example of a workload
// "built on top of" BFS (§3.2). It is provided as an extension beyond
// the paper's three-app evaluation matrix: frontier-based label
// propagation whose property array holds each vertex's current
// component label, updated through the same pointer-indirect pattern
// that makes BFS TLB-hostile. Edges are treated as undirected for
// labelling purposes by propagating along out-edges until fixpoint, so
// on directed inputs it computes the weakly-reachable fixpoint of
// min-label propagation.

// runCC executes label propagation against the simulated memory system.
// Per-neighbor label reads/writes and frontier pushes stream to s
// exactly as in BFS.
func (img *Image) runCC(s *stream) []int64 {
	g := img.G

	label := make([]int64, g.N)
	cur := make([]uint32, 0, g.N)
	next := make([]uint32, 0, g.N)
	inNext := make([]bool, g.N)
	for v := 0; v < g.N; v++ {
		label[v] = int64(v)
		s.access(img.propAddr(uint32(v))) // initialize label
		s.access(img.workAddr(0, v))      // enqueue everyone
		cur = append(cur, uint32(v))
	}

	buf := 0
	for len(cur) > 0 {
		next = next[:0]
		for i, v := range cur {
			s.access(img.workAddr(buf, i))
			s.run(img.vertexAddr(v), 2, graph.VertexEntryBytes)
			lv := label[v]
			lo, hi := g.Offsets[v], g.Offsets[v+1]
			s.run(img.edgeAddr(lo), int(hi-lo), graph.EdgeEntryBytes)
			for e := lo; e < hi; e++ {
				w := g.Neighbors[e]
				s.access(img.propAddr(w)) // read neighbor label
				if label[w] > lv {
					label[w] = lv
					s.access(img.propAddr(w)) // write
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
	return label
}

// NativeCC is the uninstrumented reference implementation.
func NativeCC(g *graph.Graph) []int64 {
	label := make([]int64, g.N)
	var cur, next []uint32
	inNext := make([]bool, g.N)
	for v := 0; v < g.N; v++ {
		label[v] = int64(v)
		cur = append(cur, uint32(v))
	}
	for len(cur) > 0 {
		next = next[:0]
		for _, v := range cur {
			lv := label[v]
			for e := g.Offsets[v]; e < g.Offsets[v+1]; e++ {
				w := g.Neighbors[e]
				if label[w] > lv {
					label[w] = lv
					if !inNext[w] {
						inNext[w] = true
						next = append(next, w)
					}
				}
			}
		}
		for _, w := range next {
			inNext[w] = false
		}
		cur, next = next, cur
	}
	return label
}
