package analytics

import (
	"math"

	"graphmem/internal/graph"
)

// The Native* functions are plain-Go reference implementations with no
// simulation instrumentation. Tests compare their outputs against the
// simulated kernels to prove the instrumentation does not alter
// algorithmic behaviour, and they also serve as the "ground truth" for
// example programs.

// NativeBFS returns hop counts from root (-1 for unreachable vertices).
func NativeBFS(g *graph.Graph, root uint32) []int64 {
	hops := make([]int64, g.N)
	for i := range hops {
		hops[i] = -1
	}
	hops[root] = 0
	cur := []uint32{root}
	level := int64(0)
	for len(cur) > 0 {
		level++
		var next []uint32
		for _, v := range cur {
			for e := g.Offsets[v]; e < g.Offsets[v+1]; e++ {
				w := g.Neighbors[e]
				if hops[w] == -1 {
					hops[w] = level
					next = append(next, w)
				}
			}
		}
		cur = next
	}
	return hops
}

// NativeSSSP returns shortest-path distances from root (-1 if
// unreachable), by frontier Bellman–Ford relaxation.
func NativeSSSP(g *graph.Graph, root uint32) []int64 {
	dist := make([]int64, g.N)
	for i := range dist {
		dist[i] = -1
	}
	dist[root] = 0
	inNext := make([]bool, g.N)
	cur := []uint32{root}
	for len(cur) > 0 {
		var next []uint32
		for _, v := range cur {
			dv := dist[v]
			for e := g.Offsets[v]; e < g.Offsets[v+1]; e++ {
				w := g.Neighbors[e]
				nd := dv + int64(g.Weights[e])
				if dist[w] == -1 || nd < dist[w] {
					dist[w] = nd
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
		cur = next
	}
	return dist
}

// NativePR returns PageRank scores with the same damping, epsilon, and
// iteration-cap semantics as the simulated kernel, defaults included.
func NativePR(g *graph.Graph, eps float64, maxIters int) ([]float64, int) {
	n := g.N
	opt := RunOptions{PREpsilon: eps, PRMaxIters: maxIters}.withDefaults()
	eps, maxIters = opt.PREpsilon, opt.PRMaxIters
	rank := make([]float64, n)
	next := make([]float64, n)
	init := 1 / float64(n)
	base := (1 - prDamping) / float64(n)
	for i := range rank {
		rank[i] = init
	}
	iters := 0
	for iters < maxIters {
		iters++
		for i := range next {
			next[i] = 0
		}
		for v := uint32(0); int(v) < n; v++ {
			lo, hi := g.Offsets[v], g.Offsets[v+1]
			deg := hi - lo
			if deg == 0 {
				continue
			}
			contrib := prDamping * rank[v] / float64(deg)
			for e := lo; e < hi; e++ {
				next[g.Neighbors[e]] += contrib
			}
		}
		var maxDelta float64
		for v := 0; v < n; v++ {
			nr := next[v] + base
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
