package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"time"

	"graphmem/internal/analytics"
	"graphmem/internal/core"
	"graphmem/internal/exp"
	"graphmem/internal/gen"
	"graphmem/internal/graph"
	"graphmem/internal/reorder"
	"graphmem/internal/stats"
)

// workload runs one round: set-up, the timed phase, then the checks.
// roundSeconds is a round's cost on the reference host (2-core Xeon,
// README.md), which sets how many rounds fit in -seconds. A workload
// that fits one round in a run sets up several times per round, so
// setup_s is a median too; the timed phase uses the last set-up's
// inputs. Each workload stresses different layers; README.md says
// which and why each was chosen.
type workload struct {
	name           string
	roundSeconds   int
	setupsPerRound int
	round          func(*result) error
}

var workloads = []workload{
	{"paper-bench", 36, 3, paperBench},
	{"paper-node", 9, 1, paperNode},
	{"paper-full", 40, 3, paperFull},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// paperExperiments are the paper's own experiments, the campaign users
// run most. table2 is left out: set-up runs it, generating every base
// graph, so the timed campaign starts from a warm dataset cache.
var paperExperiments = []string{
	"table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
	"fig8", "fig9", "fig10", "fig11", "sweep", "dbg", "headline", "pagecache",
}

// paperBench runs the paper's experiments as one campaign on a fresh
// suite with one worker per CPU. The seed permutes the experiment order,
// which changes which cells run concurrently; the datasets are fixed.
// A cell's latency is the interval between two progress callbacks of
// one worker; each worker's first interval also holds the declare phase
// and is kept out of the latency samples.
func paperBench(r *result) error {
	workers := runtime.NumCPU()
	s, err := setUp(r, func(parent int) (*exp.Suite, error) {
		s := exp.NewSuite(r.sz.campaign, nil)
		sp := r.tr.start("exp.setup", "table2", parent)
		defer sp.stop()
		_, err := exp.RunCampaign(s, []string{"table2"}, exp.CampaignOptions{Workers: workers}, io.Discard)
		return s, err
	})
	if err != nil {
		return err
	}

	ids := slices.Clone(paperExperiments)
	rng := rand.New(rand.NewSource(int64(r.cfg.seed)))
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })

	// The progress callback runs on the campaign's workers, which simlint
	// treats as the simulation path (SL010 keeps wall clocks off it), so
	// it hands each completion to a collector that reads the clock. The
	// worker then yields, so the collector runs at once: otherwise, with
	// the workers keeping both CPUs busy, it would run only when the
	// scheduler next preempts a worker, which snaps every latency to a
	// ~20 ms grid.
	type completion struct {
		worker, total int
		cell          string
	}
	completions := make(chan completion)
	collected := make(chan struct{})
	last := make([]time.Time, workers) // each worker's latest completion
	frontier := 0
	firstCell := time.Duration(1<<63 - 1)
	timed := r.tr.start("bench.timed", "", 0)
	camp := r.tr.start("exp.campaign", "", timed.id)
	began := camp.began
	go func() {
		defer close(collected)
		for c := range completions {
			now := time.Now()
			frontier = c.total
			if prev := last[c.worker]; prev.IsZero() {
				r.tr.add("exp.first_cell", c.cell, camp.id, began, now)
				firstCell = min(firstCell, now.Sub(began))
			} else {
				r.tr.add("exp.cell", c.cell, camp.id, prev, now)
				r.cells = append(r.cells, now.Sub(prev).Seconds())
			}
			last[c.worker] = now
		}
	}()
	progress := func(worker, done, total int, cell string) {
		completions <- completion{worker, total, cell}
		runtime.Gosched()
	}
	tables, err := exp.RunCampaign(s, ids, exp.CampaignOptions{Workers: workers, Progress: progress}, io.Discard)
	close(completions)
	<-collected
	end := time.Now()
	camp.stop()
	r.walls = append(r.walls, timed.stop())
	if err != nil {
		return err
	}

	// A worker that never reported went idle at the start.
	lastCell, firstIdle := began, end
	var busy time.Duration
	for _, t := range last {
		if t.IsZero() {
			t = began
		}
		lastCell, firstIdle = later(lastCell, t), earlier(firstIdle, t)
		busy += t.Sub(began)
	}
	r.tr.add("exp.render", "", camp.id, lastCell, end)
	if frontier > 0 {
		r.timings["exp.first_cell_s"] += firstCell.Seconds()
	}
	r.timings["sched.busy_frac"] += ratio(busy.Seconds(), float64(workers)*lastCell.Sub(began).Seconds())
	r.timings["sched.tail_s"] += lastCell.Sub(firstIdle).Seconds()
	if r.first() {
		r.counters["exp.cells"] = float64(frontier)
		r.counters["exp.runs"] = float64(s.CachedRunCount())
	}

	verify := r.tr.start("bench.verify", "", 0)
	for _, id := range paperExperiments {
		r.attempted++
		h := sha256.New()
		for _, t := range tables[id] {
			io.WriteString(h, t.String())
		}
		r.settle(id, hex.EncodeToString(h.Sum(nil)))
	}
	verify.stop()
	return nil
}

func later(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}

func earlier(a, b time.Time) time.Time {
	if b.Before(a) {
		return b
	}
	return a
}

// nodeShards is the shard count of every paper-node cell, as in the
// ext-fullscale experiment: each Run forks the staged node seven times.
const nodeShards = 8

// paperNode runs paper-geometry nodes with small graphs: {Kron25-shaped,
// Twit-shaped} × {BFS, PR} × {THP always, 4KB}, each on a large
// pressured node (Δ = WSS/16) with a sharded kernel. The cold pass of a
// cell stages the node, saves it and runs; the warm pass loads the saved
// image and runs again, and must reproduce the cold result exactly.
// Host cost here follows node size, not kernel work.
func paperNode(r *result) error {
	datasets, err := setUp(r, func(parent int) ([]dataset, error) {
		sp := r.tr.start("gen.kronecker", "kr25", parent)
		kr := gen.Kronecker(r.sz.nodeKronLogN, r.sz.nodeKronDeg, false, 0, r.cfg.seed)
		sp.stop()
		sp = r.tr.start("gen.powerlaw", "twit", parent)
		tw := gen.PowerLaw(gen.PowerLawConfig{
			N: r.sz.nodeTwitN, AvgDegree: r.sz.nodeTwitDeg, Alpha: 0.75, HubsClustered: true, Seed: r.cfg.seed,
		})
		sp.stop()
		return []dataset{{"kr25", kr}, {"twit", tw}}, nil
	})
	if err != nil {
		return err
	}
	if r.first() {
		for _, d := range datasets {
			r.counters["gen.edges"] += float64(d.g.NumEdges())
		}
	}

	dir, err := os.MkdirTemp("", "graphmem-bench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	var done []nodeRun
	timed := r.tr.start("bench.timed", "", 0)
	for _, d := range datasets {
		for _, app := range []analytics.App{analytics.BFS, analytics.PR} {
			for _, pol := range []core.Policy{core.THPAlways(), core.Base4K()} {
				cell := d.name + "/" + string(app) + "/" + pol.Name
				env := core.Pressured(int64(analytics.WSSBytes(app, d.g) / 16))
				env.MemoryBytes = r.sz.nodeBytes
				env.Seed = r.cfg.seed
				spec := core.RunSpec{
					Graph: d.g, App: app, Reorder: reorder.Identity, Policy: pol, Env: env,
					Shards: nodeShards, Run: runOptions(d.g),
				}
				r.attempted++
				r.shards[cell] = nodeShards
				nr, err := r.nodeCell(timed.id, cell, spec, filepath.Join(dir, "node.ckpt"))
				if err != nil {
					r.fail(cell, err)
					continue
				}
				done = append(done, nr)
			}
		}
	}
	r.walls = append(r.walls, timed.stop())

	verify := r.tr.start("bench.verify", "", 0)
	refs := make(map[refKey]analytics.Result)
	for _, nr := range done {
		r.verifyRun(refs, nr.cell, nr.cold)
		if !reflect.DeepEqual(nr.cold, nr.warm) {
			r.fail(nr.cell, errors.New("the run from the loaded image differs from the cold run"))
		}
		if r.first() {
			addRun(r.counters, nr.cold)
			addRun(r.counters, nr.warm)
			addFootprint(r.counters, nr.fp)
			r.counters["core.staged_bytes"] += float64(nr.cold.MemoryBytes)
			r.counters["ckpt.image_bytes"] += float64(nr.image)
		}
	}
	verify.stop()
	return nil
}

// dataset is a named input graph.
type dataset struct {
	name string
	g    *graph.Graph
}

// nodeRun is one paper-node cell's outcome.
type nodeRun struct {
	cell       string
	cold, warm *core.RunResult
	fp         stats.Footprint
	image      int64
}

func (r *result) nodeCell(parent int, cell string, spec core.RunSpec, path string) (nr nodeRun, err error) {
	defer recoverCell(&err)
	nr.cell = cell
	c := r.tr.start("bench.cell", cell, parent)
	cp, fp, err := r.stage(c.id, cell, spec)
	if err != nil {
		return nr, err
	}
	nr.fp = fp
	sp := r.tr.start("ckpt.save", cell, c.id)
	nr.image, err = saveCheckpoint(cp, path, cell)
	sp.stop()
	if err != nil {
		return nr, err
	}
	sp = r.tr.start("core.run", cell, c.id)
	nr.cold, err = cp.Run()
	sp.stop()
	if err != nil {
		return nr, err
	}
	r.cells = append(r.cells, c.stop())

	w := r.tr.start("bench.warm_cell", cell, parent)
	sp = r.tr.start("ckpt.load", cell, w.id)
	cp, err = loadCheckpoint(spec, path, cell)
	sp.stop()
	if err != nil {
		return nr, err
	}
	sp = r.tr.start("core.run", cell, w.id)
	nr.warm, err = cp.Run()
	sp.stop()
	r.timings["ckpt.warm_s"] += w.stop()
	return nr, err
}

// stage prepares spec's load phase, reads the staged machine's
// footprint and times one standalone fork of it.
func (r *result) stage(parent int, cell string, spec core.RunSpec) (*core.Checkpoint, stats.Footprint, error) {
	sp := r.tr.start("core.prepare", cell, parent)
	cp, err := core.Prepare(spec)
	sp.stop()
	if err != nil {
		return nil, stats.Footprint{}, err
	}
	sp = r.tr.start("core.footprint", cell, parent)
	fp, ok := cp.Footprint()
	sp.stop()
	if !ok {
		return nil, fp, errors.New("the checkpoint holds no machine (GRAPHMEM_NO_SNAPSHOT is set)")
	}
	sp = r.tr.start("core.fork", cell, parent)
	_, _, err = cp.Fork()
	sp.stop()
	return cp, fp, err
}

func saveCheckpoint(cp *core.Checkpoint, path, key string) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	n, err := cp.Save(f, key)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return n, err
}

func loadCheckpoint(spec core.RunSpec, path, key string) (*core.Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.LoadCheckpoint(spec, key, f)
}

// paperFull runs kernels on one full-size Kron25-shaped graph whose
// working set is larger than the host's caches, on default 4×WSS nodes:
// BFS on fresh 4KB and THP nodes, BFS under THP with half the free
// memory fragmented, the paper's headline cell (DBG + selective THP on
// the whole property array, fragmented) and PageRank under THP. The
// access engine and the kernels dominate; staging and forking barely
// register.
func paperFull(r *result) error {
	type inputs struct {
		g, dg *graph.Graph // the graph and its DBG reordering
		cost  reorder.Cost
	}
	in, err := setUp(r, func(parent int) (inputs, error) {
		var in inputs
		sp := r.tr.start("gen.kronecker", "kr25", parent)
		in.g = gen.Kronecker(r.sz.fullKronLogN, r.sz.fullKronDeg, false, 0, r.cfg.seed)
		sp.stop()
		sp = r.tr.start("reorder.apply", "dbg", parent)
		in.dg, in.cost = reorder.Apply(in.g, reorder.DBG, r.cfg.seed)
		sp.stop()
		return in, nil
	})
	if err != nil {
		return err
	}
	g := in.g
	if r.first() {
		r.counters["gen.edges"] = float64(g.NumEdges())
	}

	// The paper's low-pressure level: +3 GB of slack on Kron25/BFS's
	// 8.5 GB footprint, scaled to this working set.
	delta := int64(float64(analytics.WSSBytes(analytics.BFS, g)) * 3 / 8.5)
	fresh, frag := core.FreshBoot(), core.Fragmented(delta, 0.5)
	fresh.Seed, frag.Seed = r.cfg.seed, r.cfg.seed
	spec := func(g *graph.Graph, app analytics.App, pol core.Policy, env core.Environment) core.RunSpec {
		return core.RunSpec{Graph: g, App: app, Reorder: reorder.Identity, Policy: pol, Env: env, Run: runOptions(g)}
	}
	headline := spec(in.dg, analytics.BFS, core.SelectiveTHP(1), frag)
	headline.Reorder, headline.PreReorderCost = reorder.DBG, &in.cost
	cells := []struct {
		name string
		spec core.RunSpec
	}{
		{"bfs/4k/fresh", spec(g, analytics.BFS, core.Base4K(), fresh)},
		{"bfs/thp/fresh", spec(g, analytics.BFS, core.THPAlways(), fresh)},
		{"bfs/thp/frag50", spec(g, analytics.BFS, core.THPAlways(), frag)},
		{"bfs/dbg-sel-100/frag50", headline},
		{"pr/thp/fresh", spec(g, analytics.PR, core.THPAlways(), fresh)},
	}

	type fullRun struct {
		cell string
		res  *core.RunResult
		fp   stats.Footprint
	}
	var done []fullRun
	timed := r.tr.start("bench.timed", "", 0)
	for _, c := range cells {
		r.attempted++
		res, fp, err := r.fullCell(timed.id, c.name, c.spec)
		if err != nil {
			r.fail(c.name, err)
			continue
		}
		done = append(done, fullRun{c.name, res, fp})
	}
	r.walls = append(r.walls, timed.stop())

	verify := r.tr.start("bench.verify", "", 0)
	refs := make(map[refKey]analytics.Result)
	for _, d := range done {
		r.verifyRun(refs, d.cell, d.res)
		if r.first() {
			addRun(r.counters, d.res)
			addFootprint(r.counters, d.fp)
			r.counters["core.staged_bytes"] += float64(d.res.MemoryBytes)
		}
	}
	verify.stop()
	return nil
}

func (r *result) fullCell(parent int, cell string, spec core.RunSpec) (res *core.RunResult, fp stats.Footprint, err error) {
	defer recoverCell(&err)
	c := r.tr.start("bench.cell", cell, parent)
	cp, fp, err := r.stage(c.id, cell, spec)
	if err != nil {
		return nil, fp, err
	}
	sp := r.tr.start("core.run", cell, c.id)
	res, err = cp.Run()
	sp.stop()
	if err == nil {
		r.cells = append(r.cells, c.stop())
	}
	return res, fp, err
}

// runOptions are the kernel parameters of every cell: BFS from the
// highest-degree vertex, PageRank capped at the suite's three
// iterations.
func runOptions(g *graph.Graph) analytics.RunOptions {
	return analytics.RunOptions{Root: g.MaxDegreeVertex(), PREpsilon: 1e-4, PRMaxIters: 3}
}

// recoverCell turns a panic inside one cell into that cell's failure.
func recoverCell(err *error) {
	if p := recover(); p != nil {
		*err = fmt.Errorf("panic: %v", p)
	}
}
