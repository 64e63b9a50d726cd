package gen

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"graphmem/internal/check"
	"graphmem/internal/graph"
)

// The ref* generators are the sequential single-stream loops the
// package shipped before generation was split across workers, kept
// verbatim as oracles: every generator must produce exactly their
// graphs, at every GOMAXPROCS.

func refKronecker(scale, edgeFactor int, weighted bool, maxWeight uint32, seed uint64) *graph.Graph {
	n := 1 << scale
	m := n * edgeFactor
	r := newRNG(seed)
	const a, b, c = 0.57, 0.19, 0.19
	edges := make([]graph.Edge, 0, m)
	for i := 0; i < m; i++ {
		var src, dst int
		for bit := scale - 1; bit >= 0; bit-- {
			p := r.float64()
			switch {
			case p < a:
				// top-left: neither bit set
			case p < a+b:
				dst |= 1 << bit
			case p < a+b+c:
				src |= 1 << bit
			default:
				src |= 1 << bit
				dst |= 1 << bit
			}
		}
		e := graph.Edge{Src: uint32(src), Dst: uint32(dst)}
		if weighted {
			e.Weight = uint32(r.intn(int(maxWeight))) + 1
		}
		edges = append(edges, e)
	}
	// Graph500 step: relabel vertices with a random permutation so that
	// hub IDs are uncorrelated with vertex position.
	perm := r.perm(n)
	for i := range edges {
		edges[i].Src = perm[edges[i].Src]
		edges[i].Dst = perm[edges[i].Dst]
	}
	g, err := graph.FromEdges(n, edges, weighted)
	if err != nil {
		panic(check.Failf("gen: %v", err)) // generator bug, not an input error
	}
	return g
}

func refPowerLaw(cfg PowerLawConfig) *graph.Graph {
	n := cfg.N
	if n <= 1 {
		panic(check.Failf("gen: PowerLaw needs at least two vertices"))
	}
	m := n * cfg.AvgDegree
	r := newRNG(cfg.Seed)

	// Zipf weights over ranks; rank→vertex assignment controls hub
	// placement.
	weights := make([]float64, n)
	var total float64
	for rank := 0; rank < n; rank++ {
		w := 1 / math.Pow(float64(rank+1), cfg.Alpha)
		weights[rank] = w
		total += w
	}
	// cum[i] is the cumulative weight up to rank i, for inverse-CDF
	// sampling via binary search.
	cum := make([]float64, n)
	acc := 0.0
	for i, w := range weights {
		acc += w
		cum[i] = acc
	}
	rankToVertex := make([]uint32, n)
	if cfg.HubsClustered {
		for i := range rankToVertex {
			rankToVertex[i] = uint32(i) // rank 0 (hottest) = vertex 0
		}
	} else {
		perm := r.perm(n)
		copy(rankToVertex, perm)
	}

	sampleRank := func() int {
		x := r.float64() * total
		// Binary search the cumulative array.
		lo, hi := 0, n-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}

	edges := make([]graph.Edge, 0, m)
	for i := 0; i < m; i++ {
		src := rankToVertex[sampleRank()]
		var dst uint32
		if cfg.Locality > 0 && r.float64() < cfg.Locality {
			// Destination near the source in ID space.
			w := cfg.LocalityWindow
			if w < 1 {
				w = 64
			}
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
			dst = rankToVertex[sampleRank()]
		}
		e := graph.Edge{Src: src, Dst: dst}
		if cfg.Weighted {
			e.Weight = uint32(r.intn(int(cfg.MaxWeight))) + 1
		}
		edges = append(edges, e)
	}
	g, err := graph.FromEdges(n, edges, cfg.Weighted)
	if err != nil {
		panic(check.Failf("gen: %v", err))
	}
	return g
}

func refUniform(n, avgDegree int, weighted bool, maxWeight uint32, seed uint64) *graph.Graph {
	r := newRNG(seed)
	m := n * avgDegree
	edges := make([]graph.Edge, 0, m)
	for i := 0; i < m; i++ {
		e := graph.Edge{Src: uint32(r.intn(n)), Dst: uint32(r.intn(n))}
		if weighted {
			e.Weight = uint32(r.intn(int(maxWeight))) + 1
		}
		edges = append(edges, e)
	}
	g, err := graph.FromEdges(n, edges, weighted)
	if err != nil {
		panic(check.Failf("gen: %v", err))
	}
	return g
}

// oracleProcs are the GOMAXPROCS values the oracle comparisons run
// at: one worker, two and three (an uneven split), and more workers
// than the host has CPUs.
var oracleProcs = []int{1, 2, 3, 8}

// atProcs runs fn at each of oracleProcs, restoring GOMAXPROCS after.
func atProcs(t *testing.T, fn func(t *testing.T)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, p := range oracleProcs {
		runtime.GOMAXPROCS(p)
		fn(t)
		if t.Failed() {
			t.Fatalf("mismatch at GOMAXPROCS=%d", p)
		}
	}
}

func TestKroneckerMatchesReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	type kcase struct {
		scale, deg int
		weighted   bool
		maxW       uint32
		seed       uint64
	}
	// Fixed corners (one vertex, one edge per vertex, the largest case)
	// plus random cases up to a few hundred thousand edges, enough for
	// several chunks per worker.
	cases := []kcase{{0, 1, false, 0, 3}, {1, 1, true, 1, 4}, {14, 16, true, 8, 5}}
	for i := 0; i < 12; i++ {
		cases = append(cases, kcase{
			scale: 1 + rnd.Intn(14), deg: 1 + rnd.Intn(16), weighted: rnd.Intn(2) == 0,
			maxW: uint32(1 + rnd.Intn(16)), seed: rnd.Uint64(),
		})
	}
	want := make([]*graph.Graph, len(cases))
	for i, c := range cases {
		want[i] = refKronecker(c.scale, c.deg, c.weighted, c.maxW, c.seed)
	}
	atProcs(t, func(t *testing.T) {
		for i, c := range cases {
			if got := Kronecker(c.scale, c.deg, c.weighted, c.maxW, c.seed); !reflect.DeepEqual(got, want[i]) {
				t.Errorf("Kronecker%+v differs from the reference", c)
			}
		}
	})
}

func TestPowerLawMatchesReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(2))
	cases := []PowerLawConfig{
		{N: 2, AvgDegree: 1, Alpha: 0.8, Seed: 1},
		{N: 3, AvgDegree: 5, Alpha: 1, HubsClustered: true, Locality: 0.5, LocalityWindow: 1, Weighted: true, MaxWeight: 3, Seed: 2},
		{N: 60_000, AvgDegree: 8, Alpha: 0.75, HubsClustered: true, Seed: 3},
		{N: 50_000, AvgDegree: 6, Alpha: 0.65, HubsClustered: true, Locality: 0.5, LocalityWindow: 256, Weighted: true, MaxWeight: 8, Seed: 4},
	}
	for i := 0; i < 12; i++ {
		c := PowerLawConfig{
			N: 2 + rnd.Intn(40_000), AvgDegree: 1 + rnd.Intn(12), Alpha: 0.4 + 0.8*rnd.Float64(),
			HubsClustered: rnd.Intn(2) == 0, Weighted: rnd.Intn(2) == 0, MaxWeight: uint32(1 + rnd.Intn(16)),
			Seed: rnd.Uint64(),
		}
		if rnd.Intn(2) == 0 {
			// A window wider than the ID space wraps out of range,
			// which the generator does not support.
			c.Locality, c.LocalityWindow = rnd.Float64(), 1+rnd.Intn(min(300, c.N/2))
		}
		cases = append(cases, c)
	}
	want := make([]*graph.Graph, len(cases))
	for i, c := range cases {
		want[i] = refPowerLaw(c)
	}
	atProcs(t, func(t *testing.T) {
		for i, c := range cases {
			if got := PowerLaw(c); !reflect.DeepEqual(got, want[i]) {
				t.Errorf("PowerLaw(%+v) differs from the reference", c)
			}
		}
	})
}

func TestUniformMatchesReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	type ucase struct {
		n, deg   int
		weighted bool
		maxW     uint32
		seed     uint64
	}
	cases := []ucase{{1, 1, false, 0, 1}, {1 << 15, 8, true, 8, 2}}
	for i := 0; i < 10; i++ {
		cases = append(cases, ucase{
			n: 1 + rnd.Intn(30_000), deg: 1 + rnd.Intn(12), weighted: rnd.Intn(2) == 0,
			maxW: uint32(1 + rnd.Intn(16)), seed: rnd.Uint64(),
		})
	}
	want := make([]*graph.Graph, len(cases))
	for i, c := range cases {
		want[i] = refUniform(c.n, c.deg, c.weighted, c.maxW, c.seed)
	}
	atProcs(t, func(t *testing.T) {
		for i, c := range cases {
			if got := Uniform(c.n, c.deg, c.weighted, c.maxW, c.seed); !reflect.DeepEqual(got, want[i]) {
				t.Errorf("Uniform%+v differs from the reference", c)
			}
		}
	})
}

func TestRNGAtSkipsAhead(t *testing.T) {
	for _, seed := range []uint64{0, 1, 0xC0FFEE, math.MaxUint64} {
		r := newRNG(seed)
		for k := 0; k < 100; k++ {
			at := rngAt(seed, k)
			if got, want := at.next(), r.next(); got != want {
				t.Fatalf("seed %#x: rngAt(k=%d) drew %#x, the stream's draw %d is %#x", seed, k, got, k, want)
			}
		}
	}
}

// TestKronCutBoundaries checks the integer thresholds on either side of
// each initiator boundary against the float comparisons the reference
// generator makes.
func TestKronCutBoundaries(t *testing.T) {
	float := func(u uint64) (src, dst uint64) {
		const a, b, c = kronA, kronB, kronC
		switch p := float64(u) / (1 << 53); {
		case p < a:
			return 0, 0
		case p < a+b:
			return 0, 1
		case p < a+b+c:
			return 1, 0
		}
		return 1, 1
	}
	for _, th := range []uint64{kronCuts.a, kronCuts.ab, kronCuts.abc} {
		for _, u := range []uint64{0, th - 1, th, th + 1, 1<<53 - 1} {
			s, d := kronCuts.bits(u)
			if ws, wd := float(u); s != ws || d != wd {
				t.Errorf("u=%d (threshold %d): bits (%d,%d), float path (%d,%d)", u, th, s, d, ws, wd)
			}
		}
	}
	for _, p := range []float64{kronA, kronA + kronB, kronA + kronB + kronC} {
		if th := threshold(p); float64(th) != p*(1<<53) {
			t.Errorf("threshold(%v) = %d is not exact", p, th)
		}
	}
}

// TestRankSearchBoundaries checks the guided search against the full
// binary search at every cumulative weight, just beside it, at every
// guide bound, past cum[n-2], and at the total. It runs on Zipf weights
// and on cumulative weights that sit exactly on guide bounds, repeat,
// or bunch, where a bucket estimated one off changes the pick.
func TestRankSearchBoundaries(t *testing.T) {
	zipf := func(n int, alpha float64) []float64 {
		cum := make([]float64, n)
		var total float64
		for rank := range cum {
			total += 1 / math.Pow(float64(rank+1), alpha)
			cum[rank] = total
		}
		return cum
	}
	arrays := [][]float64{zipf(2, 0.8), zipf(3, 1), zipf(17, 0.5), zipf(1000, 0.75), zipf(4096, 1.2), zipf(5000, 0.01)}
	rnd := rand.New(rand.NewSource(5))
	for range 2000 {
		n := 2 + rnd.Intn(500)
		total := rnd.Float64() * math.Pow(10, float64(rnd.Intn(12)-6))
		step := total / float64(n)
		cum := make([]float64, n)
		for i := range cum {
			// On a guide bound, or one ulp to either side of it.
			cum[i] = float64(rnd.Intn(n+1)) * step
			cum[i] = math.Nextafter(cum[i], cum[i]+float64(rnd.Intn(3)-1))
		}
		slices.Sort(cum)
		cum[n-1] = total
		arrays = append(arrays, cum)
	}
	for _, cum := range arrays {
		n := len(cum)
		full := func(x float64) int {
			lo, hi := 0, n-1
			for lo < hi {
				mid := (lo + hi) / 2
				if cum[mid] < x {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			return lo
		}
		s := newRankSampler(cum)
		total := cum[n-1]
		xs := []float64{0, total, math.Nextafter(total, 0), cum[n-2], math.Nextafter(cum[n-2], 2*total)}
		for i, v := range cum {
			b := s.bound(i)
			xs = append(xs, v, math.Nextafter(v, 0), math.Nextafter(v, 2*total),
				b, math.Nextafter(b, 0), math.Nextafter(b, 2*total))
		}
		for _, x := range xs {
			if x < 0 || x > total {
				continue
			}
			if got, want := s.search(x), full(x); got != want {
				t.Fatalf("n=%d total=%v x=%v: guided search picked rank %d, full search %d", n, total, x, got, want)
			}
		}
	}
}
