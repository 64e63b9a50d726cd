package analytics

import (
	"math"
	"slices"
	"strings"
	"testing"

	"graphmem/internal/cache"
	"graphmem/internal/cost"
	"graphmem/internal/gen"
	"graphmem/internal/graph"
	"graphmem/internal/machine"
	"graphmem/internal/oskernel"
	"graphmem/internal/reorder"
	"graphmem/internal/tlb"
)

func testMachine(t *testing.T, kcfg oskernel.Config) *machine.Machine {
	t.Helper()
	return machine.New(machine.Config{
		MemoryBytes: 256 << 20,
		TLB:         tlb.Haswell(),
		Cache:       cache.Haswell(),
		Cost:        cost.Fast(),
		Kernel:      kcfg,
	})
}

func loadAndRun(t *testing.T, g *graph.Graph, app App, kcfg oskernel.Config, order AllocOrder) Result {
	t.Helper()
	m := testMachine(t, kcfg)
	img, err := NewImage(m, g, app)
	if err != nil {
		t.Fatal(err)
	}
	img.Init(order)
	return img.Run(DefaultRunOptions(g))
}

func eqInt64(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSimulatedMatchesNative is the load-bearing correctness check: the
// instrumented kernels must compute exactly what the plain-Go reference
// implementations compute, for every app, under both page policies and
// both allocation orders, on every test dataset.
func TestSimulatedMatchesNative(t *testing.T) {
	for _, ds := range gen.AllDatasets {
		for _, app := range AllApps {
			g := gen.Generate(ds, gen.ScaleTest, app == SSSP)
			opt := DefaultRunOptions(g)
			for _, kcfg := range []oskernel.Config{oskernel.BaselineConfig(), oskernel.DefaultConfig()} {
				for _, order := range []AllocOrder{Natural, PropFirst} {
					res := loadAndRun(t, g, app, kcfg, order)
					switch app {
					case BFS:
						want := NativeBFS(g, opt.Root)
						if !eqInt64(res.Hops, want) {
							t.Fatalf("%s/%s/%v/%v: BFS mismatch", ds, app, kcfg.Mode, order)
						}
					case SSSP:
						want := NativeSSSP(g, opt.Root)
						if !eqInt64(res.Dist, want) {
							t.Fatalf("%s/%s/%v/%v: SSSP mismatch", ds, app, kcfg.Mode, order)
						}
					case PR:
						want, iters := NativePR(g, opt.PREpsilon, opt.PRMaxIters)
						if res.Iterations != iters {
							t.Fatalf("%s PR iterations %d != %d", ds, res.Iterations, iters)
						}
						for i := range want {
							if math.Abs(want[i]-res.Ranks[i]) > 1e-12 {
								t.Fatalf("%s PR rank[%d] = %g, want %g", ds, i, res.Ranks[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestReorderingPreservesResults: BFS distances are permutation-
// equivariant — hop count of vertex v in g equals hop of perm[v] in the
// relabelled graph (from the corresponding root).
func TestReorderingPreservesResults(t *testing.T) {
	g := gen.Generate(gen.Kron25, gen.ScaleTest, false)
	perm, _ := reorder.Compute(g, reorder.DBG, 0)
	ng, err := g.Relabel(perm)
	if err != nil {
		t.Fatal(err)
	}
	root := g.MaxDegreeVertex()
	a := NativeBFS(g, root)
	b := NativeBFS(ng, perm[root])
	for v := 0; v < g.N; v++ {
		if a[v] != b[perm[v]] {
			t.Fatalf("hops differ after relabel: v=%d", v)
		}
	}
}

func TestWSSBytes(t *testing.T) {
	g := gen.Generate(gen.Wiki, gen.ScaleTest, true)
	n, m := uint64(g.N), uint64(g.NumEdges())
	ceil := func(b uint64) uint64 { return (b + 4095) / 4096 * 4096 }
	if got, want := WSSBytes(BFS, g), ceil((n+1)*8)+ceil(m*4)+ceil(n*8)+ceil(2*n*4); got != want {
		t.Fatalf("BFS WSS = %d, want %d", got, want)
	}
	if got, want := WSSBytes(SSSP, g), ceil((n+1)*8)+ceil(m*4)+ceil(m*4)+ceil(n*8)+ceil(2*n*4); got != want {
		t.Fatalf("SSSP WSS = %d, want %d", got, want)
	}
	if got, want := WSSBytes(PR, g), ceil((n+1)*8)+ceil(m*4)+ceil(n*16); got != want {
		t.Fatalf("PR WSS = %d, want %d", got, want)
	}
	// The process-overhead region is deliberately not part of the
	// graph-data working set.
	if WSSBytes(BFS, g)%4096 != 0 {
		t.Fatal("WSS not page-granular")
	}
}

func TestImageRequiresWeightsForSSSP(t *testing.T) {
	g := gen.Generate(gen.Wiki, gen.ScaleTest, false)
	m := testMachine(t, oskernel.BaselineConfig())
	if _, err := NewImage(m, g, SSSP); err == nil {
		t.Fatal("SSSP accepted unweighted graph")
	}
}

// TestImageRequiresEdges: a valid graph with no edges is refused with an
// error for every app, not a panic mapping its empty edge array.
func TestImageRequiresEdges(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		g, err := graph.FromEdges(1, nil, weighted)
		if err != nil {
			t.Fatal(err)
		}
		for _, app := range []App{BFS, SSSP, PR, CC, BC} {
			if app == SSSP && !weighted {
				continue
			}
			m := testMachine(t, oskernel.BaselineConfig())
			if _, err := NewImage(m, g, app); err == nil || !strings.Contains(err.Error(), "edges") {
				t.Fatalf("%s on an edgeless graph (weighted %t): err %v, want the no-edges error", app, weighted, err)
			}
		}
	}
}

func TestInitFaultsEverything(t *testing.T) {
	g := gen.Generate(gen.Wiki, gen.ScaleTest, false)
	m := testMachine(t, oskernel.BaselineConfig())
	img, err := NewImage(m, g, BFS)
	if err != nil {
		t.Fatal(err)
	}
	img.Init(Natural)
	for _, v := range []struct {
		vma interface{ MappedBytes() (uint64, uint64) }
	}{
		{img.Vertex}, {img.Edge}, {img.Prop}, {img.Work},
	} {
		total, _ := v.vma.MappedBytes()
		if total == 0 {
			t.Fatal("array not faulted in by Init")
		}
	}
	// The kernel phase must then run fault-free.
	m.BeginPhase("probe")
	img.Run(DefaultRunOptions(g))
	k, _ := func() (machine.PhaseStats, bool) { m.FinishPhases(); return m.Phase("kernel") }()
	if k.FaultCycles != 0 {
		t.Fatalf("kernel phase faulted: %d cycles", k.FaultCycles)
	}
}

func TestAllocOrderControlsFaultOrder(t *testing.T) {
	g := gen.Generate(gen.Wiki, gen.ScaleTest, false)
	for _, order := range []AllocOrder{Natural, PropFirst} {
		m := testMachine(t, oskernel.BaselineConfig())
		img, err := NewImage(m, g, BFS)
		if err != nil {
			t.Fatal(err)
		}
		img.Init(order)
		// Find the lowest frame of prop vs edge: PropFirst must give
		// prop lower frames than the edge array and vice versa.
		propTr, _, ok1 := m.Space.Translate(img.Prop.Base)
		edgeTr, _, ok2 := m.Space.Translate(img.Edge.Base)
		if !ok1 || !ok2 {
			t.Fatal("arrays unmapped")
		}
		propBeforeEdge := propTr.Frame < edgeTr.Frame
		if (order == PropFirst) != propBeforeEdge {
			t.Fatalf("order %v: prop frame %d, edge frame %d", order, propTr.Frame, edgeTr.Frame)
		}
	}
}

func TestDoubleInitPanics(t *testing.T) {
	g := gen.Generate(gen.Wiki, gen.ScaleTest, false)
	m := testMachine(t, oskernel.BaselineConfig())
	img, _ := NewImage(m, g, BFS)
	img.Init(Natural)
	defer func() {
		if recover() == nil {
			t.Fatal("double Init did not panic")
		}
	}()
	img.Init(Natural)
}

func TestRunBeforeInitPanics(t *testing.T) {
	g := gen.Generate(gen.Wiki, gen.ScaleTest, false)
	m := testMachine(t, oskernel.BaselineConfig())
	img, _ := NewImage(m, g, BFS)
	defer func() {
		if recover() == nil {
			t.Fatal("Run before Init did not panic")
		}
	}()
	img.Run(DefaultRunOptions(g))
}

func TestPropEntryBytes(t *testing.T) {
	if PropEntryBytes(BFS) != 8 || PropEntryBytes(SSSP) != 8 || PropEntryBytes(PR) != 16 {
		t.Fatal("property entry sizes wrong")
	}
}

func TestPRConvergesWithLooseEpsilon(t *testing.T) {
	g := gen.Generate(gen.Wiki, gen.ScaleTest, false)
	_, iters := NativePR(g, 0.5, 50)
	if iters >= 50 {
		t.Fatal("PR did not converge with loose epsilon")
	}
}

// TestPropArrayDominatesIrregularAccesses verifies the paper's Fig. 4
// premise on our workloads: the property array absorbs by far the most
// TLB-hostile (walk-causing) accesses in the 4KB configuration.
func TestPropArrayDominatesIrregularAccesses(t *testing.T) {
	g := gen.Generate(gen.Kron25, gen.ScaleBench, false)
	// Scale the TLB down so the property array exceeds STLB reach at
	// bench-scale graph sizes, as it does at full scale.
	m := machine.New(machine.Config{
		MemoryBytes: 256 << 20,
		TLB:         tlb.Scaled(tlb.Haswell(), 16),
		Cache:       cache.Haswell(),
		Cost:        cost.Fast(),
		Kernel:      oskernel.BaselineConfig(),
	})
	img, err := NewImage(m, g, BFS)
	if err != nil {
		t.Fatal(err)
	}
	img.Init(Natural)
	img.Run(DefaultRunOptions(g))
	var prop, rest machine.ArrayStats
	for _, a := range m.ArrayStats() {
		if a.Name == "prop" {
			prop = a
		} else {
			rest.Walks += a.Walks
		}
	}
	if prop.Accesses == 0 {
		t.Fatal("no property accesses recorded")
	}
	if prop.Walks <= rest.Walks {
		t.Fatalf("prop walks %d not dominant over others %d (graph too small for this check?)",
			prop.Walks, rest.Walks)
	}
}

// TestCCMatchesNative validates the Connected Components extension the
// same way as the paper workloads.
func TestCCMatchesNative(t *testing.T) {
	for _, ds := range gen.AllDatasets {
		g := gen.Generate(ds, gen.ScaleTest, false)
		res := loadAndRun(t, g, CC, oskernel.DefaultConfig(), Natural)
		want := NativeCC(g)
		if !eqInt64(res.Labels, want) {
			t.Fatalf("%s: CC labels mismatch", ds)
		}
	}
}

// TestCCLabelsAreComponentRepresentatives: every vertex's label is the
// minimum vertex ID reachable to it along the propagation closure, so
// labels must be ≤ the vertex's own ID and stable under one more native
// iteration.
func TestCCLabelsAreComponentRepresentatives(t *testing.T) {
	g := gen.Generate(gen.Kron25, gen.ScaleTest, false)
	labels := NativeCC(g)
	for v, l := range labels {
		if l > int64(v) {
			t.Fatalf("label[%d] = %d exceeds own ID", v, l)
		}
	}
	// Fixpoint check: no edge can still lower a label.
	for v := 0; v < g.N; v++ {
		for e := g.Offsets[v]; e < g.Offsets[v+1]; e++ {
			w := g.Neighbors[e]
			if labels[w] > labels[v] {
				t.Fatalf("not a fixpoint: %d -> %d", v, w)
			}
		}
	}
}

// TestBCMatchesNative validates the Betweenness Centrality extension
// against the reference implementation.
func TestBCMatchesNative(t *testing.T) {
	for _, ds := range []gen.Dataset{gen.Kron25, gen.Wiki} {
		g := gen.Generate(ds, gen.ScaleTest, false)
		res := loadAndRun(t, g, BC, oskernel.DefaultConfig(), Natural)
		want := NativeBC(g, 4)
		for v := range want {
			if math.Abs(res.Centrality[v]-want[v]) > 1e-9 {
				t.Fatalf("%s: bc[%d] = %g, want %g", ds, v, res.Centrality[v], want[v])
			}
		}
	}
}

// TestZeroOptionsTakeDefaults requires the kernels and the native
// references to agree on zero kernel parameters: each takes the default
// DefaultRunOptions sets, so a BC run with no source count matches
// NativeBC(g, 0), and NativePR(g, 0, 0) is NativePR with the defaults.
func TestZeroOptionsTakeDefaults(t *testing.T) {
	g := gen.Generate(gen.Wiki, gen.ScaleTest, false)
	def := DefaultRunOptions(g)
	if want := (RunOptions{Root: def.Root, PREpsilon: 1e-4, PRMaxIters: 10, BCSources: 4}); def != want {
		t.Fatalf("DefaultRunOptions = %+v, want %+v", def, want)
	}
	want := NativeBC(g, 0)
	if !slices.Equal(want, NativeBC(g, def.BCSources)) {
		t.Fatal("NativeBC(g, 0) differs from NativeBC with the default source count")
	}
	m := testMachine(t, oskernel.DefaultConfig())
	img, err := NewImage(m, g, BC)
	if err != nil {
		t.Fatal(err)
	}
	img.Init(Natural)
	res := img.Run(RunOptions{Root: def.Root})
	for v := range want {
		if math.Abs(res.Centrality[v]-want[v]) > 1e-9 {
			t.Fatalf("BC with no source count: bc[%d] = %g, NativeBC(g, 0) %g", v, res.Centrality[v], want[v])
		}
	}
	ranks, iters := NativePR(g, 0, 0)
	wantRanks, wantIters := NativePR(g, def.PREpsilon, def.PRMaxIters)
	if iters != wantIters || !slices.Equal(ranks, wantRanks) {
		t.Fatalf("NativePR(g, 0, 0) ran %d iterations, with the defaults %d (or the ranks differ)", iters, wantIters)
	}
}

// TestBCAgainstBruteForce cross-checks single-source Brandes against a
// brute-force all-shortest-paths count on a small fixed graph.
func TestBCAgainstBruteForce(t *testing.T) {
	// Diamond: 0→{1,2}, 1→3, 2→3, 3→4. Two shortest paths 0→3.
	edges := []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 2},
		{Src: 1, Dst: 3}, {Src: 2, Dst: 3}, {Src: 3, Dst: 4},
	}
	g, err := graph.FromEdges(5, edges, false)
	if err != nil {
		t.Fatal(err)
	}
	// Force the single source 0 by using k=1 (stride picks vertex 0).
	got := NativeBC(g, 1)
	// Dependencies from source 0:
	//   delta(3) counts pairs (0,4): sigma(3)=2 paths... delta(3) = sigma3/sigma4*(1+delta4) = 2/2*(1+0) = 1
	//   delta(1) = sigma1/sigma3*(1+delta3) = 1/2*2 = 1; same for delta(2)
	want := []float64{0, 1, 1, 1, 0}
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-12 {
			t.Fatalf("bc[%d] = %g, want %g (all: %v)", v, got[v], want[v], got)
		}
	}
}

func TestBCSourceSelection(t *testing.T) {
	g := gen.Generate(gen.Wiki, gen.ScaleTest, false)
	srcs := bcSources(g, 4)
	if len(srcs) == 0 || len(srcs) > 4 {
		t.Fatalf("sources = %v", srcs)
	}
	seen := map[uint32]bool{}
	for _, s := range srcs {
		if seen[s] {
			t.Fatal("duplicate source")
		}
		seen[s] = true
		if g.OutDegree(s) == 0 {
			t.Fatal("isolated source selected")
		}
	}
}

// TestAccountingIdentityStressedBFS runs BFS under the full THP policy
// on a machine deliberately smaller than the workload's footprint, so
// the run exercises every cycle source at once: demand faults (huge and
// base), reclaim, swap-in/out, demotion, khugepaged promotion, and TLB
// walks. The staged access engine must preserve the accounting identity
// exactly: per phase, Cycles = TranslationCycles + DataCycles +
// FaultCycles, and the phases sum to the machine's total cycle counter.
func TestAccountingIdentityStressedBFS(t *testing.T) {
	g := gen.Generate(gen.Kron25, gen.ScaleBench, false)
	m := machine.New(machine.Config{
		MemoryBytes: 4 << 20, // footprint is ~4.9MB: forces reclaim and swap
		TLB:         tlb.Haswell(),
		Cache:       cache.Haswell(),
		Cost:        cost.Fast(),
		Kernel:      oskernel.DefaultConfig(),
	})
	img, err := NewImage(m, g, BFS)
	if err != nil {
		t.Fatal(err)
	}
	m.BeginPhase("init")
	img.Init(Natural)
	m.BeginPhase("kernel")
	img.Run(DefaultRunOptions(g))
	phases := m.FinishPhases()

	var sum uint64
	for _, p := range phases {
		if p.Cycles != p.TranslationCycles+p.DataCycles+p.FaultCycles {
			t.Fatalf("phase %q: cycles %d != translation %d + data %d + fault %d",
				p.Name, p.Cycles, p.TranslationCycles, p.DataCycles, p.FaultCycles)
		}
		sum += p.Cycles
	}
	if sum != m.Cycles() {
		t.Fatalf("phases sum to %d cycles, machine counted %d", sum, m.Cycles())
	}

	// The identity only means something if the run was actually
	// stressed: demand faults, swap traffic, and huge page churn.
	s := m.Kernel.Stats()
	if s.Faults4K == 0 || s.FaultsHuge == 0 {
		t.Fatalf("run not stressed: kernel stats %+v", s)
	}
	if s.SwapOuts == 0 || s.SwapIns == 0 {
		t.Fatalf("no swap pressure: kernel stats %+v", s)
	}
}
