// Package gen produces the synthetic input networks for the experiment
// suite. The paper evaluates one synthetic power-law network (Kronecker
// scale-25) and three real networks (Twitter, Sd1 Arc, Wikipedia); real
// traces are not redistributable at simulation scale, so each real
// network is replaced by a generated analogue that preserves the two
// properties the paper's results hinge on:
//
//  1. the degree distribution's skew (a small hot set dominates property
//     array accesses), and
//  2. how clustered the hot vertices are in vertex-ID space (Kronecker
//     hubs are scattered by the Graph500 relabeling, so DBG helps;
//     Twitter/Wikipedia hubs arrive with low, adjacent IDs, so DBG is
//     nearly a no-op — exactly the behaviour in Fig. 10).
//
// All generators are deterministic in their seed: a graph depends on
// the seed alone, never on GOMAXPROCS. Kronecker, PowerLaw and Uniform
// split their edges into contiguous chunks across GOMAXPROCS workers,
// and every edge takes a fixed number of draws from the seed's
// SplitMix64 stream. The stream is a counter, so a worker skips ahead
// to its chunk's first draw in O(1) (rngAt) and draws exactly the
// values the sequential loop drew for those edges.
package gen

import (
	"math"

	"graphmem/internal/check"
	"graphmem/internal/graph"
	"graphmem/internal/sched"
)

// minChunk is the fewest edges a generator hands one worker; a graph
// with fewer than twice as many is generated on the calling goroutine.
const minChunk = 1 << 14

// checkMaxWeight rejects a weighted graph whose weights cannot be
// drawn. Generator workers must not panic, so this runs before the
// split.
func checkMaxWeight(weighted bool, maxWeight uint32) {
	if weighted && maxWeight == 0 {
		panic(check.Failf("gen: weighted graph needs a positive max weight"))
	}
}

// Graph500 initiator probabilities of the top-left, top-right and
// bottom-left quadrants; the bottom-right one takes the rest.
const kronA, kronB, kronC = 0.57, 0.19, 0.19

// kronCut holds the initiator's cumulative probabilities A, A+B and
// A+B+C as thresholds on u = next()>>11. float64() returns exactly
// u/2^53, and each cumulative probability t lies in [0.5,1), where t·2^53
// is an integer, so p < t holds exactly when u < t·2^53.
type kronCut struct{ a, ab, abc uint64 }

func threshold(t float64) uint64 { return uint64(t * (1 << 53)) }

var kronCuts = kronCut{threshold(kronA), threshold(kronA + kronB), threshold(kronA + kronB + kronC)}

// bits returns the src and dst bits that one draw picks: p in [0,A)
// sets neither, [A,A+B) dst, [A+B,A+B+C) src, and [A+B+C,1) both. For
// u < 2^53 and a threshold t ≤ 2^53, (t-1-u)>>63 is 1 exactly when
// u ≥ t, so no branch depends on the draw.
func (k kronCut) bits(u uint64) (src, dst uint64) {
	return (k.ab - 1 - u) >> 63, ((k.a - 1 - u) ^ (k.ab - 1 - u) ^ (k.abc - 1 - u)) >> 63
}

// Kronecker generates an RMAT/Kronecker graph of 2^scale vertices with
// edgeFactor edges per vertex, using the Graph500 initiator
// probabilities (A=0.57, B=0.19, C=0.19) and the Graph500 random vertex
// relabeling that scatters hubs across the ID space. If weighted, edge
// weights are uniform in [1, maxWeight].
//
// Edge i takes draws [i·D, (i+1)·D) of the seed's stream, where D is
// scale plus one if weighted: one per bit, most significant first, then
// the weight. The relabeling permutation takes the draws after the last
// edge's.
func Kronecker(scale, edgeFactor int, weighted bool, maxWeight uint32, seed uint64) *graph.Graph {
	checkMaxWeight(weighted, maxWeight)
	n := 1 << scale
	m := n * edgeFactor
	draws := scale
	if weighted {
		draws++
	}
	// Graph500 step: relabel vertices with a random permutation so that
	// hub IDs are uncorrelated with vertex position. Workers apply it
	// as they write their edges.
	tail := rngAt(seed, m*draws)
	perm := tail.perm(n)
	edges := make([]graph.Edge, m)
	sched.Chunks(m, minChunk, func(lo, hi int) {
		r := rngAt(seed, lo*draws)
		for i := lo; i < hi; i++ {
			var src, dst uint64
			for range scale {
				s, d := kronCuts.bits(r.next() >> 11)
				src, dst = src<<1|s, dst<<1|d
			}
			e := graph.Edge{Src: perm[src], Dst: perm[dst]}
			if weighted {
				e.Weight = uint32(r.intn(int(maxWeight))) + 1
			}
			edges[i] = e
		}
	})
	g, err := graph.FromEdges(n, edges, weighted)
	if err != nil {
		panic(check.Failf("gen: %v", err)) // generator bug, not an input error
	}
	return g
}

// PowerLawConfig drives the configurable power-law generator used for
// the real-network analogues.
type PowerLawConfig struct {
	N         int     // vertices
	AvgDegree int     // mean out-degree
	Alpha     float64 // Zipf exponent of the degree distribution (≈0.6–1.0)
	// HubsClustered places the high-degree vertices at low adjacent IDs
	// (natural community structure, Twitter/Wikipedia-like). When
	// false, hub positions are scattered randomly (Kronecker-like).
	HubsClustered bool
	// Locality in [0,1) is the probability that an edge's destination
	// is drawn from a window near the source ID rather than from the
	// global degree-weighted distribution; it models the link locality
	// of web graphs.
	Locality float64
	// LocalityWindow is the half-width of the near-ID window.
	LocalityWindow int

	Weighted  bool
	MaxWeight uint32

	Seed uint64
}

// PowerLaw generates a directed graph by a Chung–Lu-style process: each
// vertex gets a Zipf target weight, destinations are sampled with
// probability proportional to weight, and sources are sampled the same
// way, so in- and out-degree distributions are both skewed.
//
// The seed's stream first shuffles hub positions (n-1 draws, only when
// hubs are scattered). Then every edge takes D draws: its source rank,
// the locality coin (only when Locality > 0), its destination (a rank
// or a window offset), and its weight (only if weighted).
func PowerLaw(cfg PowerLawConfig) *graph.Graph {
	n := cfg.N
	if n <= 1 {
		panic(check.Failf("gen: PowerLaw needs at least two vertices"))
	}
	checkMaxWeight(cfg.Weighted, cfg.MaxWeight)
	m := n * cfg.AvgDegree

	// Zipf weights over ranks; rank→vertex assignment controls hub
	// placement. cum[i] is the cumulative weight up to rank i, for
	// inverse-CDF sampling.
	cum := make([]float64, n)
	var total float64
	for rank := range cum {
		total += 1 / math.Pow(float64(rank+1), cfg.Alpha)
		cum[rank] = total
	}
	ranks := newRankSampler(cum)
	var rankToVertex []uint32
	first := 0 // the first edge's first draw
	if cfg.HubsClustered {
		rankToVertex = make([]uint32, n)
		for i := range rankToVertex {
			rankToVertex[i] = uint32(i) // rank 0 (hottest) = vertex 0
		}
	} else {
		rankToVertex = newRNG(cfg.Seed).perm(n)
		first = n - 1
	}
	draws := 2
	if cfg.Locality > 0 {
		draws++
	}
	if cfg.Weighted {
		draws++
	}
	w := cfg.LocalityWindow
	if w < 1 {
		w = 64
	}

	edges := make([]graph.Edge, m)
	sched.Chunks(m, minChunk, func(lo, hi int) {
		r := rngAt(cfg.Seed, first+lo*draws)
		for i := lo; i < hi; i++ {
			src := rankToVertex[ranks.sample(&r)]
			var dst uint32
			if cfg.Locality > 0 && r.float64() < cfg.Locality {
				// Destination near the source in ID space.
				off := r.intn(2*w+1) - w
				d := int(src) + off
				if d < 0 {
					d += n
				}
				if d >= n {
					d -= n
				}
				dst = uint32(d)
			} else {
				dst = rankToVertex[ranks.sample(&r)]
			}
			e := graph.Edge{Src: src, Dst: dst}
			if cfg.Weighted {
				e.Weight = uint32(r.intn(int(cfg.MaxWeight))) + 1
			}
			edges[i] = e
		}
	})
	g, err := graph.FromEdges(n, edges, cfg.Weighted)
	if err != nil {
		panic(check.Failf("gen: %v", err))
	}
	return g
}

// rankSampler draws ranks by inverse-CDF sampling of the cumulative
// rank weights cum: a draw scaled to x in [0, total] picks the lowest
// rank i < n-1 with cum[i] ≥ x, or n-1 if there is none.
//
// A full binary search over cum costs log2(n) dependent cache misses
// per draw. The guide table bounds it instead: guide[j] is the rank
// that bound(j) = j·total/n picks, so a draw between bound(j) and
// bound(j+1) picks a rank between guide[j] and guide[j+1], which is a
// few entries apart.
type rankSampler struct {
	cum       []float64
	total     float64
	step, inv float64  // total/n and its reciprocal
	guide     []uint32 // n+1 entries; guide[n] = n-1
}

func newRankSampler(cum []float64) *rankSampler {
	n := len(cum)
	s := &rankSampler{cum: cum, total: cum[n-1], guide: make([]uint32, n+1)}
	s.step, s.inv = s.total/float64(n), float64(n)/s.total
	i := 0
	for j := range n {
		b := s.bound(j)
		for i < n-1 && cum[i] < b {
			i++
		}
		s.guide[j] = uint32(i)
	}
	s.guide[n] = uint32(n - 1)
	return s
}

func (s *rankSampler) bound(j int) float64 { return float64(j) * s.step }

func (s *rankSampler) sample(r *rng) int { return s.search(r.float64() * s.total) }

// search returns the rank x picks. Rounding may put the estimated
// bucket one off, so it steps until bound(j) ≤ x ≤ bound(j+1), which
// is all the guide's bracket needs.
func (s *rankSampler) search(x float64) int {
	last := len(s.guide) - 2 // the last bucket
	j := min(int(x*s.inv), last)
	for j > 0 && s.bound(j) > x {
		j--
	}
	for j < last && s.bound(j+1) < x {
		j++
	}
	lo, hi := int(s.guide[j]), int(s.guide[j+1])
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.cum[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Uniform generates an Erdős–Rényi-style graph (no skew); useful as a
// control in tests. Edge i takes draws [i·D, (i+1)·D) of the seed's
// stream: source, destination, and the weight if weighted.
func Uniform(n, avgDegree int, weighted bool, maxWeight uint32, seed uint64) *graph.Graph {
	if n <= 0 {
		panic(check.Failf("gen: Uniform needs at least one vertex"))
	}
	checkMaxWeight(weighted, maxWeight)
	m := n * avgDegree
	draws := 2
	if weighted {
		draws++
	}
	edges := make([]graph.Edge, m)
	sched.Chunks(m, minChunk, func(lo, hi int) {
		r := rngAt(seed, lo*draws)
		for i := lo; i < hi; i++ {
			e := graph.Edge{Src: uint32(r.intn(n)), Dst: uint32(r.intn(n))}
			if weighted {
				e.Weight = uint32(r.intn(int(maxWeight))) + 1
			}
			edges[i] = e
		}
	})
	g, err := graph.FromEdges(n, edges, weighted)
	if err != nil {
		panic(check.Failf("gen: %v", err))
	}
	return g
}

// Grid generates a 2D grid ("road network") of w×h vertices with edges
// to the four neighbours. Grids are the structural opposite of the
// paper's power-law networks — uniform degree, huge diameter, perfect
// spatial locality — and serve as the negative control: selective THP
// and DBG should buy almost nothing here, because no vertex is hotter
// than any other.
func Grid(w, h int, weighted bool, maxWeight uint32, seed uint64) *graph.Graph {
	if w < 2 || h < 2 {
		panic(check.Failf("gen: Grid needs at least 2x2"))
	}
	r := newRNG(seed)
	n := w * h
	edges := make([]graph.Edge, 0, 4*n)
	id := func(x, y int) uint32 { return uint32(y*w + x) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var nbrs []uint32
			if x+1 < w {
				nbrs = append(nbrs, id(x+1, y))
			}
			if x > 0 {
				nbrs = append(nbrs, id(x-1, y))
			}
			if y+1 < h {
				nbrs = append(nbrs, id(x, y+1))
			}
			if y > 0 {
				nbrs = append(nbrs, id(x, y-1))
			}
			for _, nb := range nbrs {
				e := graph.Edge{Src: id(x, y), Dst: nb}
				if weighted {
					e.Weight = uint32(r.intn(int(maxWeight))) + 1
				}
				edges = append(edges, e)
			}
		}
	}
	g, err := graph.FromEdges(n, edges, weighted)
	if err != nil {
		panic(check.Failf("gen: %v", err))
	}
	return g
}
