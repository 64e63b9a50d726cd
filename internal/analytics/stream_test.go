package analytics

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"graphmem/internal/cache"
	"graphmem/internal/check"
	"graphmem/internal/cost"
	"graphmem/internal/gen"
	"graphmem/internal/graph"
	"graphmem/internal/machine"
	"graphmem/internal/oskernel"
	"graphmem/internal/tlb"
	"graphmem/internal/vm"
)

// streamConfig is one machine configuration of the stream oracle.
type streamConfig struct {
	name    string
	cfg     machine.Config
	ticker  uint64 // a no-op ticker's interval, or 0
	trace   bool   // attach a recording tracer
	promote bool   // khugepaged promotes: run on streamGraph's whole regions
}

// streamConfigs are the five standard configurations under which a
// batch boundary could show if the stream moved one: khugepaged
// promoting mid-run, heat-driven promotion (its scanner reads heat, so
// flush order matters), a stale event deadline (events due on every
// access), simulated page-table memory, and a tracer attached.
func streamConfigs() []streamConfig {
	smallTLB := tlb.Scaled(tlb.Haswell(), 16)
	smallCache := cache.Scaled(cache.Haswell(), 8)

	khuge := oskernel.DefaultConfig()
	khuge.KhugepagedEnabled = true
	khuge.KhugepagedInterval = 5000
	khuge.Mode = oskernel.ModeAlways
	khuge.FaultTimeHuge = false // promotions mid-run force shootdowns

	heat := khuge
	heat.PromoteByHeat = true

	never := oskernel.DefaultConfig()
	never.Mode = oskernel.ModeNever
	never.KhugepagedEnabled = true
	never.KhugepagedInterval = 4000

	const mem = 96 << 20
	return []streamConfig{
		{name: "khugepaged", cfg: machine.Config{MemoryBytes: mem, TLB: smallTLB, Cache: smallCache, Cost: cost.Fast(), Kernel: khuge}, ticker: 3000, promote: true},
		{name: "heat-promoter", cfg: machine.Config{MemoryBytes: mem, TLB: smallTLB, Cache: smallCache, Cost: cost.Fast(), Kernel: heat}, promote: true},
		{name: "stale-deadline", cfg: machine.Config{MemoryBytes: mem, TLB: tlb.Haswell(), Cache: cache.Haswell(), Cost: cost.Fast(), Kernel: never}},
		{name: "simulated-pt", cfg: machine.Config{MemoryBytes: mem, TLB: smallTLB, Cache: smallCache, Cost: cost.Default(), Kernel: khuge, SimulatePageTables: true}, promote: true},
		{name: "tracer", cfg: machine.Config{MemoryBytes: mem, TLB: smallTLB, Cache: smallCache, Cost: cost.Default(), Kernel: oskernel.DefaultConfig()}, trace: true},
	}
}

// scalarSink drives a machine one scalar Access at a time: the oracle
// every batched replay must match.
type scalarSink struct{ m *machine.Machine }

func (s scalarSink) AccessRun(va uint64, count int, stride uint64) {
	for ; count > 0; count-- {
		s.m.Access(va)
		va += stride
	}
}

func (s scalarSink) AccessGather(vas []uint64) {
	for _, va := range vas {
		s.m.Access(va)
	}
}

// The scalar twin probes its caches inline: it starts no cache stage.
func (scalarSink) StartCacheStage()      {}
func (scalarSink) StopCacheStage() error { return nil }

// recorder is a tracer that keeps every access.
type recorder struct {
	vas  []uint64
	tags []uint8
}

func (r *recorder) Trace(va uint64, tag uint8) {
	r.vas = append(r.vas, va)
	r.tags = append(r.tags, tag)
}

// streamRun is everything one kernel run produced: its result and the
// machine's full state of counters.
type streamRun struct {
	Result Result
	Probe  ProbeResult
	Cycles uint64
	Promos uint64 // promotions while the kernel ran
	Phases []machine.PhaseStats
	Arrays []machine.ArrayStats
	TLB    tlb.Stats
	Cache  cache.Stats
	OS     oskernel.Stats
	Heat   [][]uint64
	Trace  *recorder
}

// streamGraph spans at least one whole 2 MB region in every array a
// kernel scatters into (2^18 vertices: 2 MB of 8-byte property entries)
// so khugepaged has regions to promote mid-run, while its 2^18 edges
// keep each kernel about a million accesses. Configurations that
// promote nothing, and every configuration under the race detector,
// run on the test-scale Kronecker graph.
func streamGraph(sc streamConfig, weighted bool) *graph.Graph {
	if !sc.promote || raceEnabled {
		return gen.Generate(gen.Kron25, gen.ScaleTest, weighted)
	}
	return gen.Kronecker(18, 1, weighted, 8, 0x57AE)
}

// streamImage builds and initializes an image of g for app on a fresh
// machine of configuration sc. A promoting configuration initializes
// under THP mode never and switches to its own mode for the kernel, as
// the rollout experiment does, so its promotions land while the kernel
// streams.
func streamImage(t *testing.T, sc streamConfig, g *graph.Graph, app App) (*Image, *recorder) {
	t.Helper()
	m := machine.New(sc.cfg)
	if sc.ticker != 0 {
		m.AddTicker(sc.ticker, func(uint64) {})
	}
	img, err := NewImage(m, g, app)
	if err != nil {
		t.Fatal(err)
	}
	if sc.promote {
		m.Kernel.SetMode(oskernel.ModeNever)
	}
	img.Init(Natural)
	m.Kernel.SetMode(sc.cfg.Kernel.Mode)
	var rec *recorder
	if sc.trace {
		rec = &recorder{}
		m.SetTracer(rec)
	}
	return img, rec
}

// streamVariant runs app's kernel (or, for app "probe", the rollout
// probe on a BFS image) on a fresh image, and returns what it produced
// and the machine's cache-stage counters. A nil dst streams through
// Image.Run or RunProbe as callers do; otherwise the kernel streams to
// dst(img's machine) in words-word blocks.
func streamVariant(t *testing.T, sc streamConfig, g *graph.Graph, app App, opt RunOptions,
	dst func(*machine.Machine) sink, words int) (streamRun, machine.CacheStageStats) {
	t.Helper()
	kernelApp, probe := app, app == "probe"
	if probe {
		kernelApp = BFS
	}
	img, rec := streamImage(t, sc, g, kernelApp)
	m := img.M
	promos0 := m.Kernel.Stats().Promotions
	var out streamRun
	switch {
	case dst == nil && probe:
		out.Probe = img.RunProbe(probeBudget)
	case dst == nil:
		out.Result = img.Run(opt)
	default:
		s := newStream(dst(m), words, streamBlocks)
		defer s.stop()
		if probe {
			out.Probe = img.probe(s, probeBudget)
		} else {
			out.Result = img.kernel(s, opt)
		}
	}
	out.Cycles = m.Cycles()
	out.Phases = m.FinishPhases()
	out.Arrays = m.ArrayStats()
	out.TLB = m.TLB.Stats()
	out.Cache = m.Cache.Stats()
	out.OS = m.Kernel.Stats()
	out.Promos = out.OS.Promotions - promos0
	for _, v := range []*vm.VMA{img.Vertex, img.Edge, img.Values, img.Prop, img.Work, img.Misc} {
		if v != nil {
			out.Heat = append(out.Heat, v.HeatCopy())
		}
	}
	out.Trace = rec
	return out, m.CacheStageStats()
}

const probeBudget = 50_000

func machineSink(m *machine.Machine) sink { return m }
func oracleSink(m *machine.Machine) sink  { return scalarSink{m} }

// TestStreamMatchesScalar is the stream's oracle: for every monolithic
// kernel and the rollout probe, under each standard configuration, a
// streamed run — through Image.Run or RunProbe, and again in blocks of
// a few words, so that gathers split and every op lands near a block
// boundary — must equal a twin machine fed the same ops one scalar
// Access at a time, with its caches probed inline, in its result and in
// every counter. Each streamed run must start one cache goroutine
// unless page tables are simulated, a tracer is attached or GOMAXPROCS
// is 1, and under a promoting configuration must drain it at an event
// deadline, not only when it stops: a stage that always probed inline
// would match the twin too. Each promoting configuration must promote
// while its kernels stream, where an event fired at the wrong cycle
// shows in the counters.
func TestStreamMatchesScalar(t *testing.T) {
	for _, sc := range streamConfigs() {
		plain, weighted := streamGraph(sc, false), streamGraph(sc, true)
		opt := RunOptions{Root: plain.MaxDegreeVertex(), PREpsilon: 1e-4, PRMaxIters: 1, BCSources: 1}
		var promos uint64
		for _, app := range []App{BFS, SSSP, PR, CC, BC, "probe"} {
			t.Run(fmt.Sprintf("%s/%s", sc.name, app), func(t *testing.T) {
				g := plain
				if app == SSSP {
					g = weighted
				}
				want, _ := streamVariant(t, sc, g, app, opt, oracleSink, streamBlockWords)
				promos += want.Promos
				for _, v := range []struct {
					name  string
					dst   func(*machine.Machine) sink
					words int
				}{
					{"Run", nil, 0},
					{"5-word blocks", machineSink, 5},
				} {
					got, stage := streamVariant(t, sc, g, app, opt, v.dst, v.words)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s diverged from the scalar twin:\ngot  %+v\nwant %+v", v.name, got, want)
					}
					starts := uint64(1)
					if sc.cfg.SimulatePageTables || sc.trace || runtime.GOMAXPROCS(0) < 2 {
						starts = 0
					}
					if stage.Starts != starts {
						t.Fatalf("%s started %d cache goroutines, want %d", v.name, stage.Starts, starts)
					}
					if sc.promote && starts > 0 && stage.Drains <= stage.Starts {
						t.Fatalf("%s drained its cache goroutine %d times over %d starts: never at a deadline", v.name, stage.Drains, stage.Starts)
					}
				}
			})
		}
		if sc.promote && promos == 0 && !raceEnabled {
			t.Fatalf("%s promoted no huge page while its kernels streamed: the oracle never saw a shootdown there", sc.name)
		}
	}
}

// settledGoroutines waits briefly for goroutines that have signalled
// their exit to finish it, and returns the count.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200 && n > want; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// catch runs f and returns what it panicked with, or nil.
func catch(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// TestStreamReplayFailure: a machine-side panic on the replay
// goroutine — here the first access to an array unmapped behind the
// kernel's back — must reach the caller as a check.Failure whose first
// line is the machine's message and whose text carries the replay
// goroutine's stack down to the machine, with no goroutine left behind:
// from Image.Run, whose kernel is still streaming when replay fails,
// and from a probe small enough to fit one block, whose failure
// surfaces at close.
func TestStreamReplayFailure(t *testing.T) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			g := gen.Generate(gen.Kron25, gen.ScaleTest, false)
			m := testMachine(t, oskernel.DefaultConfig())
			img, err := NewImage(m, g, BFS)
			if err != nil {
				t.Fatal(err)
			}
			img.Init(Natural)
			m.Space.Munmap(img.Prop)
			before := runtime.NumGoroutine()
			first := func(name string, f func()) string {
				v := catch(f)
				fail, ok := v.(check.Failure)
				if !ok {
					t.Fatalf("%s panicked with %T %v, want a check.Failure", name, v, v)
				}
				msg := fail.Error()
				if !strings.Contains(msg, "graphmem/internal/machine.") || !strings.Contains(msg, "analytics.(*stream).Consume") {
					t.Fatalf("%s's failure does not carry the replay goroutine's stack:\n%s", name, msg)
				}
				line, _, _ := strings.Cut(msg, "\n")
				return line
			}
			if got, want := first("Run", func() { img.Run(DefaultRunOptions(g)) }),
				fmt.Sprintf("machine: access to unmapped address %#x", img.propAddr(g.MaxDegreeVertex())); got != want {
				t.Fatalf("Run failed with %q, want %q", got, want)
			}
			if got := first("RunProbe", func() { img.RunProbe(100) }); !strings.HasPrefix(got, "machine: access to unmapped address ") {
				t.Fatalf("RunProbe failed with %q, want the machine's unmapped-address failure", got)
			}
			if n := settledGoroutines(before); n != before {
				t.Fatalf("%d goroutines after the failed runs, %d before", n, before)
			}
		})
	}
}

// TestStreamCacheFailure: a panic on the cache goroutine — here a data
// cache with no levels, swapped in behind the kernel's back — must
// reach the caller as a check.Failure whose first line is the panic's
// own message and whose text carries the cache goroutine's stack, with
// no goroutine left behind: from Image.Run, where the replay goroutine
// meets the failure as it hands over a block, and from a probe small
// enough to fit one block, whose failure surfaces when the stage stops.
func TestStreamCacheFailure(t *testing.T) {
	for _, procs := range []int{2, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			g := gen.Generate(gen.Kron25, gen.ScaleTest, false)
			k := oskernel.DefaultConfig()
			k.KhugepagedEnabled = false // no deadline: every probe goes to the cache goroutine
			m := testMachine(t, k)
			img, err := NewImage(m, g, BFS)
			if err != nil {
				t.Fatal(err)
			}
			img.Init(Natural)
			m.Cache = new(cache.Hierarchy) // its first probe dereferences a nil level
			before := runtime.NumGoroutine()
			for _, c := range []struct {
				name string
				run  func()
			}{
				{"Run", func() { img.Run(DefaultRunOptions(g)) }},
				{"RunProbe", func() { img.RunProbe(100) }},
			} {
				name := c.name
				v := catch(c.run)
				fail, ok := v.(check.Failure)
				if !ok {
					t.Fatalf("%s panicked with %T %v, want a check.Failure", name, v, v)
				}
				msg := fail.Error()
				if line, _, _ := strings.Cut(msg, "\n"); !strings.HasPrefix(line, "runtime error: invalid memory address") {
					t.Fatalf("%s failed with %q, want the cache goroutine's nil dereference", name, line)
				}
				if !strings.Contains(msg, "cache goroutine:") || !strings.Contains(msg, "machine.(*cacheStage).Consume") {
					t.Fatalf("%s's failure does not carry the cache goroutine's stack:\n%s", name, msg)
				}
			}
			if n := settledGoroutines(before); n > before {
				t.Fatalf("%d goroutines after the failed runs, %d before", n, before)
			}
		})
	}
}

// TestStreamKernelFailure: a kernel-side panic mid-stream — PageRank
// meeting a neighbor ID past the graph after many blocks have gone to
// replay — must reach the caller unchanged and stop the replay
// goroutine.
func TestStreamKernelFailure(t *testing.T) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			g := gen.Generate(gen.Kron25, gen.ScaleTest, false)
			m := testMachine(t, oskernel.DefaultConfig())
			img, err := NewImage(m, g, PR)
			if err != nil {
				t.Fatal(err)
			}
			img.Init(Natural)
			g.Neighbors[len(g.Neighbors)-1] = uint32(g.N) + 7
			before := runtime.NumGoroutine()
			v := catch(func() { img.Run(DefaultRunOptions(g)) })
			if err, ok := v.(runtime.Error); !ok || !strings.Contains(err.Error(), "index out of range") {
				t.Fatalf("Run panicked with %T %v, want the kernel's index error", v, v)
			}
			if n := settledGoroutines(before); n != before {
				t.Fatalf("%d goroutines after the failed Run, %d before", n, before)
			}
		})
	}
}

// TestStreamLeavesNoGoroutine: a normal Run and RunProbe each start a
// cache goroutine beside their replay goroutine and end both before
// they return.
func TestStreamLeavesNoGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	g := gen.Generate(gen.Kron25, gen.ScaleTest, false)
	m := testMachine(t, oskernel.DefaultConfig())
	img, err := NewImage(m, g, BFS)
	if err != nil {
		t.Fatal(err)
	}
	img.Init(Natural)
	before := runtime.NumGoroutine()
	img.Run(DefaultRunOptions(g))
	img.RunProbe(10_000)
	if n := settledGoroutines(before); n != before {
		t.Fatalf("%d goroutines after Run and RunProbe, %d before", n, before)
	}
	if st := m.CacheStageStats(); st.Starts != 2 {
		t.Fatalf("Run and RunProbe started %d cache goroutines, want 2", st.Starts)
	}
}
