package graph

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
)

// refRelabel is the sequential Relabel the package shipped before rows
// were filled in parallel, kept verbatim as the oracle.
func (g *Graph) refRelabel(perm []uint32) (*Graph, error) {
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
	for v := 0; v < g.N; v++ {
		nv := perm[v]
		dst := ng.Offsets[nv]
		for i := g.Offsets[v]; i < g.Offsets[v+1]; i++ {
			ng.Neighbors[dst] = perm[g.Neighbors[i]]
			if g.Weights != nil {
				ng.Weights[dst] = g.Weights[i]
			}
			dst++
		}
		// Sort each adjacency run (with weights attached) for a
		// canonical result.
		lo, hi := ng.Offsets[nv], ng.Offsets[nv+1]
		if ng.Weights == nil {
			s := ng.Neighbors[lo:hi]
			sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
		} else {
			idx := make([]int, hi-lo)
			for i := range idx {
				idx[i] = i
			}
			nb, wt := ng.Neighbors[lo:hi], ng.Weights[lo:hi]
			sort.Slice(idx, func(a, b int) bool { return nb[idx[a]] < nb[idx[b]] })
			nb2 := make([]uint32, len(nb))
			wt2 := make([]uint32, len(wt))
			for i, j := range idx {
				nb2[i], wt2[i] = nb[j], wt[j]
			}
			copy(nb, nb2)
			copy(wt, wt2)
		}
	}
	return ng, nil
}

// randomGraph draws a graph whose out-degrees are skewed (a few rows
// long enough for the sort's partitioning path) and whose neighbors
// repeat often, so weighted rows carry ties whose order is the sort's.
func randomGraph(rnd *rand.Rand, n, m int, weighted bool) *Graph {
	edges := make([]Edge, m)
	for i := range edges {
		src := rnd.Intn(n)
		if rnd.Intn(4) == 0 {
			src = rnd.Intn(1 + n/64) // hub rows
		}
		edges[i] = Edge{Src: uint32(src), Dst: uint32(rnd.Intn(1 + rnd.Intn(n))), Weight: uint32(rnd.Intn(9))}
	}
	g, err := FromEdges(n, edges, weighted)
	if err != nil {
		panic(err)
	}
	return g
}

func TestRelabelMatchesReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(4))
	type rcase struct {
		g    *Graph
		perm []uint32
	}
	var cases []rcase
	for _, size := range [][2]int{{1, 0}, {1, 3}, {7, 40}, {300, 5000}, {20_000, 300_000}, {70_000, 200_000}} {
		for _, weighted := range []bool{false, true} {
			g := randomGraph(rnd, size[0], size[1], weighted)
			perm := make([]uint32, g.N)
			for i, p := range rnd.Perm(g.N) {
				perm[i] = uint32(p)
			}
			cases = append(cases, rcase{g, perm})
		}
	}
	want := make([]*Graph, len(cases))
	for i, c := range cases {
		var err error
		if want[i], err = c.g.refRelabel(c.perm); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		for i, c := range cases {
			got, err := c.g.Relabel(c.perm)
			if err != nil || !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("GOMAXPROCS=%d: Relabel of a %d-vertex %d-edge graph (weighted %v) differs from the reference (err %v)",
					procs, c.g.N, c.g.NumEdges(), c.g.Weighted(), err)
			}
		}
	}
}
