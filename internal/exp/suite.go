// Package exp defines the paper's experiments — one per figure/table of
// the evaluation — on top of the core library, with run memoization so
// figures that share configurations (e.g. Figs. 1–3) reuse each other's
// runs.
//
// Campaigns may execute their simulation cells in parallel: the suite's
// run and graph memo tables are sched.Cache promise caches (first
// requester computes, later requesters block on the same result).
// RunCampaign learns each experiment's cells by running it once on a
// recording view of the suite, which lists the cells it requests
// without simulating them, fans the deduplicated frontier over a
// sched.Pool, and then renders tables sequentially in registry order.
// Because every cell owns its machine and is a pure function of its
// RunSpec, campaign output is byte-identical for every worker count —
// see DESIGN.md §5 for the protocol and the argument.
//
// Every cell owns its load phase: the page-size policy acts while the
// graph initializes, so no two cells stage the same machine. A cell is
// one core.Run, which stages the load phase and runs the kernel on
// that machine and then drops it; forks serve only where a load phase
// is shared, between the shards of a sharded cell and ext-rollout's
// candidates (DESIGN.md §5b).
//
// Memory-pressure levels are specified in the paper's units (GB of
// slack beyond the working set on their 3–25GB footprints) and scaled to
// the simulated working set through Table 2's footprints, so "+0.5GB on
// Twitter/BFS" stresses the simulated run exactly as hard, relatively,
// as it stressed the paper's machine.
package exp

import (
	"fmt"
	"io"
	"sync"

	"graphmem/internal/analytics"
	"graphmem/internal/check"
	"graphmem/internal/core"
	"graphmem/internal/gen"
	"graphmem/internal/graph"
	"graphmem/internal/reorder"
	"graphmem/internal/sched"
	"graphmem/internal/stats"
	"graphmem/internal/tlb"
)

// paperWSSGB is Table 2's memory footprints (GB).
var paperWSSGB = map[analytics.App]map[gen.Dataset]float64{
	analytics.BFS:  {gen.Kron25: 8.5, gen.Twit: 16, gen.Web: 16.5, gen.Wiki: 3},
	analytics.SSSP: {gen.Kron25: 12.5, gen.Twit: 24, gen.Web: 25, gen.Wiki: 5},
	analytics.PR:   {gen.Kron25: 9, gen.Twit: 16, gen.Web: 17, gen.Wiki: 3},
}

// Pressure levels used across the suite, in paper GB.
const (
	highPressureGB = 0.5 // Fig. 7's "+0.5GB"
	lowPressureGB  = 3.0 // Figs. 8–11's "+3GB"
)

// Suite runs experiments at a chosen scale, caching datasets (original
// and reordered) and memoizing individual runs. A Suite is safe for
// concurrent use by scheduler workers: both memo tables are promise
// caches, so duplicate cell requests collapse onto one computation and
// every requester receives the identical *core.RunResult.
type Suite struct {
	Scale gen.Scale
	// PRMaxIters caps PageRank iterations. Every configuration of one
	// comparison runs the same number of iterations, so speedups are
	// unaffected; the cap only bounds simulation time.
	PRMaxIters int
	// Log receives progress lines (one per fresh run); nil silences.
	// Writes are serialized by the suite, but under a parallel campaign
	// their order reflects completion order, not registry order — only
	// rendered tables carry the determinism guarantee.
	Log io.Writer
	// TLB optionally overrides the hardware TLB geometry for every run
	// (zero value = the paper's Haswell hierarchy). Shape tests use a
	// scaled hierarchy so bench-sized graphs exert full-sized pressure.
	TLB tlb.Config

	*memo

	// rec is set only on a recording view (record): run appends each
	// requested cell to it instead of simulating.
	rec *[]runCfg
}

// memo holds a suite's promise caches and log lock. A recording view
// shares its suite's memo, so recordings resolve graphs through the
// same cache as the campaign they declare.
type memo struct {
	logMu  sync.Mutex
	graphs sched.Cache[graphKey, *graphEntry]
	runs   sched.Cache[string, *core.RunResult]
}

// NewSuite constructs a suite. ScaleFull reproduces the paper's
// geometry; ScaleBench is for quick looks and benchmarks.
func NewSuite(scale gen.Scale, log io.Writer) *Suite {
	return &Suite{
		Scale:      scale,
		PRMaxIters: 3,
		Log:        log,
		memo:       new(memo),
	}
}

// record runs one experiment against a recording view of s and returns
// the cells it requested, in request order. Nothing is simulated or
// memoized; the view shares s's caches, so graphs still generate once.
func (s *Suite) record(run func(*Suite) []*stats.Table) []runCfg {
	var cells []runCfg
	view := *s
	view.rec = &cells
	run(&view)
	return cells
}

// recording reports whether s is a recording view: experiments then
// skip every simulation they do outside run (see Experiment.Run).
func (s *Suite) recording() bool { return s.rec != nil }

type graphKey struct {
	ds       gen.Dataset
	weighted bool
	method   reorder.Method
}

type graphEntry struct {
	g    *graph.Graph
	cost reorder.Cost
	root uint32
}

// graph returns the cached dataset variant, generating (and for
// non-identity methods, reordering) it on first request. The promise
// cache recurses: a reordered variant's compute requests the identity
// base, which is a different key, so two workers racing on DBG and
// identity variants of one dataset still generate the base exactly
// once.
func (s *Suite) graph(ds gen.Dataset, weighted bool, method reorder.Method) *graphEntry {
	k := graphKey{ds, weighted, method}
	return s.graphs.Get(k, func() *graphEntry {
		var e graphEntry
		if method == reorder.Identity {
			e.g = gen.Generate(ds, s.Scale, weighted)
		} else {
			base := s.graph(ds, weighted, reorder.Identity)
			e.g, e.cost = reorder.Apply(base.g, method, 1)
		}
		e.root = e.g.MaxDegreeVertex()
		return &e
	})
}

// runCfg names one full configuration (one campaign cell).
type runCfg struct {
	app    analytics.App
	ds     gen.Dataset
	method reorder.Method
	order  analytics.AllocOrder
	policy core.Policy
	env    core.Environment

	// sampleEvery enables the huge-page-economy timeline (Fig. 6);
	// zero for every other cell.
	sampleEvery uint64

	// shards, when >1, runs the kernel phase on the sharded machine
	// engine (core.RunSpec.Shards). Like every other field here it is a
	// modeling knob — the worker count driving the shards is not part
	// of the cell (it follows GOMAXPROCS), so cell results stay
	// byte-identical at any parallelism.
	shards int
}

func (c runCfg) key() string {
	return fmt.Sprintf("%s|%s|%s|%v|%s|%.3f|%+v|%d|%d",
		c.app, c.ds, c.method, c.order, c.policy.Name, c.policy.PropPercent, c.env, c.sampleEvery, c.shards)
}

// label is the short operator-facing cell name used in progress lines.
func (c runCfg) label() string {
	return fmt.Sprintf("%s/%s/%s/%s/%s", c.app, c.ds, c.method, c.policy.Name, c.order)
}

// spec materializes the RunSpec a cell names, resolving the graph
// variant through the graph cache.
func (s *Suite) spec(c runCfg) core.RunSpec {
	e := s.graph(c.ds, c.app == analytics.SSSP, c.method)
	spec := core.RunSpec{
		Graph:             e.g,
		App:               c.app,
		Reorder:           c.method,
		Order:             c.order,
		Policy:            c.policy,
		Env:               c.env,
		TLB:               s.TLB,
		SampleSupplyEvery: c.sampleEvery,
		Shards:            c.shards,
		Run: analytics.RunOptions{
			Root:       e.root,
			PREpsilon:  1e-4,
			PRMaxIters: s.PRMaxIters,
		},
	}
	if c.method != reorder.Identity {
		cost := e.cost
		spec.PreReorderCost = &cost
	}
	return spec
}

// run executes (or recalls) one configuration. Under a parallel
// campaign the first requester computes and every concurrent duplicate
// blocks on the same promise; the returned pointer is identical across
// all requesters.
//
// On a recording view, run only lists c and returns an empty result.
func (s *Suite) run(c runCfg) *core.RunResult {
	if s.recording() {
		*s.rec = append(*s.rec, c)
		return &core.RunResult{}
	}
	return s.runs.Get(c.key(), func() *core.RunResult {
		r, err := core.Run(s.spec(c))
		if err != nil {
			panic(check.Failf("exp: run %s: %v", c.key(), err))
		}
		if s.Log != nil {
			s.logMu.Lock()
			fmt.Fprintf(s.Log, "  ran %-4s %-4s %-4s %-10s order=%-10s cycles=%d\n",
				c.app, c.ds, c.method, c.policy.Name, c.order, r.TotalCycles)
			s.logMu.Unlock()
		}
		return r
	})
}

// delta converts a paper-scale pressure level (GB beyond the WSS on the
// paper machine) to simulated bytes for one app/dataset configuration.
func (s *Suite) delta(app analytics.App, ds gen.Dataset, paperGB float64) int64 {
	e := s.graph(ds, app == analytics.SSSP, reorder.Identity)
	wssSim := float64(analytics.WSSBytes(app, e.g))
	paper := paperWSSGB[app][ds]
	if paper == 0 {
		// Extension workloads (e.g. CC) have no Table 2 row; their
		// footprints match BFS's, so scale through that.
		paper = paperWSSGB[analytics.BFS][ds]
	}
	return int64(paperGB * (1 << 30) * wssSim / (paper * (1 << 30)))
}

// envPressured is the paper's constrained-memory environment at a
// paper-scale delta.
func (s *Suite) envPressured(app analytics.App, ds gen.Dataset, paperGB float64) core.Environment {
	return core.Pressured(s.delta(app, ds, paperGB))
}

// envFragmented is the paper's fragmentation environment: low pressure
// plus non-movable fragmentation of the available memory.
func (s *Suite) envFragmented(app analytics.App, ds gen.Dataset, paperGB, level float64) core.Environment {
	return core.Fragmented(s.delta(app, ds, paperGB), level)
}

// baseline returns the 4KB-pages fresh-boot run — the denominator of
// every speedup in the paper.
func (s *Suite) baseline(app analytics.App, ds gen.Dataset) *core.RunResult {
	return s.run(baselineCfg(app, ds))
}

// baselineCfg names the baseline cell.
func baselineCfg(app analytics.App, ds gen.Dataset) runCfg {
	return runCfg{
		app: app, ds: ds, method: reorder.Identity,
		order: analytics.Natural, policy: core.Base4K(), env: core.FreshBoot(),
	}
}

// CachedRunCount reports how many distinct runs the suite has executed.
func (s *Suite) CachedRunCount() int { return s.runs.Len() }

// CheckInvariants audits the suite's promise caches. quiesced asserts
// the barrier state (no Get in flight): every installed promise
// resolved. RunCampaign invokes it through check.Audit after each pool
// barrier.
func (s *Suite) CheckInvariants(quiesced bool) error {
	if err := s.graphs.CheckInvariants(quiesced); err != nil {
		return fmt.Errorf("graph cache: %v", err)
	}
	if err := s.runs.CheckInvariants(quiesced); err != nil {
		return fmt.Errorf("run cache: %v", err)
	}
	return nil
}
