// Package analytics implements the paper's three evaluation workloads —
// push-based BFS, SSSP, and PageRank — running against the simulated
// memory system. Each algorithm computes real results over the graph
// while routing every access to the vertex, edge, values, property, and
// worklist arrays through the machine's access engine (sequential
// AccessRun, irregular AccessGather), so the simulator observes the
// exact access stream the paper characterizes. Every kernel appends its
// accesses to a stream (stream.go): a monolithic kernel's stream has a
// replay goroutine that feeds the machine while the kernel computes
// ahead, and each shard worker of a sharded kernel (shard.go) replays
// its own stream inline.
package analytics

import (
	"fmt"

	"graphmem/internal/check"
	"graphmem/internal/graph"
	"graphmem/internal/machine"
	"graphmem/internal/vm"
)

// App names a workload.
type App string

const (
	BFS  App = "bfs"
	SSSP App = "sssp"
	PR   App = "pr"
	// CC (Connected Components) is an extension beyond the paper's
	// evaluation matrix; see cc.go.
	CC App = "cc"
	// BC (Betweenness Centrality, k-source Brandes) is an extension
	// beyond the paper's evaluation matrix; see bc.go.
	BC App = "bc"
)

// AllApps lists the paper's evaluation workloads, in its order.
var AllApps = []App{BFS, SSSP, PR}

// ExtendedApps adds the extension workloads built on the paper's
// building blocks.
var ExtendedApps = []App{BFS, SSSP, PR, CC, BC}

// AllocOrder is the initialization-time memory allocation order studied
// in Figs. 7–9: Natural loads the CSR arrays first and allocates the
// property array last; PropFirst is the paper's graph-analytics-
// optimized order that allocates (and faults in) the property array
// before anything else, so it wins the competition for huge pages.
type AllocOrder uint8

const (
	Natural AllocOrder = iota
	PropFirst
)

func (o AllocOrder) String() string {
	if o == PropFirst {
		return "prop-first"
	}
	return "natural"
}

// PropEntryBytes returns the property-array element size for an app.
// PageRank keeps (rank, next-rank) pairs in one entry so the single
// "property array" of the paper's model holds all irregularly-updated
// state.
func PropEntryBytes(app App) uint64 {
	switch app {
	case PR:
		return 16
	case BC:
		return bcPropEntryBytes
	default:
		return graph.PropEntryBytes
	}
}

// WorklistBytes returns the worklist footprint for an app (two frontier
// arrays for BFS/SSSP/CC; PageRank is not frontier-based).
func WorklistBytes(app App, n int) uint64 {
	if app == PR {
		return 0
	}
	return 2 * uint64(n) * 4
}

// MiscBytes is the non-graph resident footprint every process carries —
// stack, loader, malloc metadata, kernel bookkeeping. It is NOT part of
// WSSBytes (the paper's footprints, like Table 2's, count graph data
// only), which is exactly why the paper sees an order-of-magnitude
// cliff at "no additional memory available": the process needs slightly
// more than its data footprint, so Δ=0 is already a deficit.
const MiscBytes = 256 << 10

// WSSBytes computes the working-set size of an app/dataset pair — the
// graph-data footprint that is the denominator of every memory-pressure
// level in the paper. Each array is counted at page granularity, since
// that is what it occupies.
func WSSBytes(app App, g *graph.Graph) uint64 {
	pageCeil := func(b uint64) uint64 {
		const pg = 4096
		return (b + pg - 1) / pg * pg
	}
	b := pageCeil(uint64(len(g.Offsets)) * graph.VertexEntryBytes)
	b += pageCeil(uint64(g.NumEdges()) * graph.EdgeEntryBytes)
	if app == SSSP {
		b += pageCeil(uint64(g.NumEdges()) * graph.ValueEntryBytes)
	}
	b += pageCeil(uint64(g.N) * PropEntryBytes(app))
	if wb := WorklistBytes(app, g.N); wb > 0 {
		b += pageCeil(wb)
	}
	return b
}

// Image is a graph loaded into a machine's simulated address space.
type Image struct {
	App App
	G   *graph.Graph
	M   *machine.Machine

	Vertex *vm.VMA
	Edge   *vm.VMA
	Values *vm.VMA // SSSP only
	Prop   *vm.VMA
	Work   *vm.VMA // BFS/SSSP/CC/BC frontier double-buffer
	Misc   *vm.VMA // process overhead (stack, loader, heap metadata)

	initialized bool
}

// NewImage mmaps the arrays an app needs. Nothing is faulted in yet:
// callers apply madvise policy first, then call Init, which touches the
// arrays in the configured order (triggering demand faults exactly as
// initialization I/O would). A graph with no edges has no edge array
// to map, so it is refused like an unweighted graph for SSSP.
func NewImage(m *machine.Machine, g *graph.Graph, app App) (*Image, error) {
	if app == SSSP && !g.Weighted() {
		return nil, fmt.Errorf("analytics: SSSP requires a weighted graph")
	}
	if g.NumEdges() == 0 {
		return nil, fmt.Errorf("analytics: %s requires a graph with edges; this one has %d vertices and none", app, g.N)
	}
	img := &Image{App: app, G: g, M: m}
	img.Vertex = m.Space.Mmap("vertex", uint64(len(g.Offsets))*graph.VertexEntryBytes)
	img.Edge = m.Space.Mmap("edge", uint64(g.NumEdges())*graph.EdgeEntryBytes)
	if app == SSSP {
		img.Values = m.Space.Mmap("values", uint64(g.NumEdges())*graph.ValueEntryBytes)
	}
	img.Prop = m.Space.Mmap("prop", uint64(g.N)*PropEntryBytes(app))
	if wb := WorklistBytes(app, g.N); wb > 0 {
		img.Work = m.Space.Mmap("worklist", wb)
	}
	img.Misc = m.Space.Mmap("process", MiscBytes)
	img.Misc.Madvise(0, MiscBytes, vm.AdviceNoHuge)
	m.RegisterArray(img.Vertex)
	m.RegisterArray(img.Edge)
	if img.Values != nil {
		m.RegisterArray(img.Values)
	}
	m.RegisterArray(img.Prop)
	if img.Work != nil {
		m.RegisterArray(img.Work)
	}
	return img, nil
}

// Init simulates the paper's initialization phase: each array is
// streamed through once (file read or zero-fill), faulting its pages in.
// The order argument selects which array faults first and therefore wins
// scarce huge pages. Init runs inside an "init" machine phase.
func (img *Image) Init(order AllocOrder) {
	if img.initialized {
		panic(check.Failf("analytics: double Init"))
	}
	img.M.BeginPhase("init")
	touch := func(v *vm.VMA) {
		if v != nil {
			img.M.Touch(v.Base, v.Bytes)
		}
	}
	// Process overhead (stack, loader pages) is resident before any
	// graph data arrives.
	touch(img.Misc)
	if order == PropFirst {
		touch(img.Prop)
	}
	touch(img.Vertex)
	touch(img.Edge)
	touch(img.Values)
	touch(img.Work)
	if order == Natural {
		touch(img.Prop)
	}
	img.initialized = true
}

// Run executes the app's kernel inside a "kernel" machine phase and
// returns the algorithm's result for validation:
//
//   - BFS: hop counts (int64, -1 unreached)
//   - SSSP: distances (int64, -1 unreached)
//   - PR: ranks (float64)
//   - CC: component labels (int64, the least vertex ID min-label
//     propagation carries to each vertex)
//   - BC: unnormalized centrality scores (float64)
//
// The kernel streams its accesses to the machine (stream.go); Run
// returns only after the machine has replayed every one of them.
func (img *Image) Run(opt RunOptions) Result {
	return img.run(img.M, opt)
}

// RunTraced is Run with every access of the kernel handed to t, in
// order, each just before the machine simulates it (traceSink).
func (img *Image) RunTraced(opt RunOptions, t Tracer) Result {
	return img.run(traceSink{img.M, t}, opt)
}

// run streams the kernel into dst, which drives img's machine.
func (img *Image) run(dst sink, opt RunOptions) Result {
	if !img.initialized {
		panic(check.Failf("analytics: Run before Init"))
	}
	s := newStream(dst, streamBlockWords, streamBlocks)
	defer s.stop()
	return img.kernel(s, opt.withDefaults())
}

// kernel runs the app's kernel in the "kernel" phase, streaming its
// accesses to s, and closes s. Every field of opt is set.
func (img *Image) kernel(s *stream, opt RunOptions) Result {
	img.M.BeginPhase("kernel")
	s.dst.StartCacheStage()
	var res Result
	switch img.App {
	case BFS:
		res.Hops = img.runBFS(s, opt.Root)
	case SSSP:
		res.Dist = img.runSSSP(s, opt.Root)
	case PR:
		res.Ranks, res.Iterations = img.runPR(s, opt.PREpsilon, opt.PRMaxIters)
	case CC:
		res.Labels = img.runCC(s)
	case BC:
		res.Centrality = img.runBC(s, opt.BCSources)
	default:
		panic(check.Failf("analytics: unknown app %s", img.App))
	}
	s.close()
	return res
}

// RunOptions parameterizes a kernel execution. Run and RunSharded
// replace each kernel parameter that is not positive with its default.
type RunOptions struct {
	Root       uint32  // BFS/SSSP source
	PREpsilon  float64 // PageRank convergence threshold (default 1e-4)
	PRMaxIters int     // PageRank iteration cap (default 10)
	BCSources  int     // Betweenness Centrality source sample size (default 4)
}

// withDefaults returns opt with every kernel parameter that is not
// positive set to its default.
func (opt RunOptions) withDefaults() RunOptions {
	if !(opt.PREpsilon > 0) {
		opt.PREpsilon = 1e-4
	}
	if opt.PRMaxIters <= 0 {
		opt.PRMaxIters = 10
	}
	if opt.BCSources <= 0 {
		opt.BCSources = 4
	}
	return opt
}

// DefaultRunOptions picks the max-degree vertex as root (a large
// traversal, deterministic) and the paper-style PR parameters.
func DefaultRunOptions(g *graph.Graph) RunOptions {
	return RunOptions{Root: g.MaxDegreeVertex()}.withDefaults()
}

// Result carries whichever output the app produced.
type Result struct {
	Hops       []int64
	Dist       []int64
	Ranks      []float64
	Labels     []int64
	Centrality []float64
	Iterations int
}

// --- simulated address helpers ----------------------------------------

func (img *Image) vertexAddr(v uint32) uint64 {
	return img.Vertex.Base + uint64(v)*graph.VertexEntryBytes
}

func (img *Image) edgeAddr(i uint64) uint64 {
	return img.Edge.Base + i*graph.EdgeEntryBytes
}

func (img *Image) valueAddr(i uint64) uint64 {
	return img.Values.Base + i*graph.ValueEntryBytes
}

func (img *Image) propAddr(v uint32) uint64 {
	return img.Prop.Base + uint64(v)*PropEntryBytes(img.App)
}

// workAddr addresses slot i of frontier buffer buf (0 or 1).
func (img *Image) workAddr(buf int, i int) uint64 {
	return img.Work.Base + uint64(buf)*uint64(img.G.N)*4 + uint64(i)*4
}
