package exp

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"graphmem/internal/check"
	"graphmem/internal/sched"
	"graphmem/internal/stats"
)

// Experiment couples an id with its runner and a description.
type Experiment struct {
	ID    string
	Paper string // the paper artifact it reproduces
	Desc  string

	// Run renders the experiment's tables, requesting every simulation
	// cell through Suite.run. RunCampaign declares the campaign
	// frontier by first calling Run on a recording view of the suite
	// (Suite.record), where run lists each cell and returns an empty
	// *core.RunResult. Recording relies on three rules:
	//   - Run requests the same cells whatever the results say.
	//   - Run tolerates empty results.
	//   - While Suite.recording, Run skips all work it does outside
	//     Suite.run: ext-rollout's forks and probes, ext-grid's direct
	//     core.Run calls, ext-fullscale's footprint staging.
	// TestCellsMatchRuns checks that each recording lists exactly the
	// cells a real Run requests.
	Run func(*Suite) []*stats.Table

	// Caps is a comma-separated capability list shown by expdriver
	// -list. CapSharded marks experiments with cells running the
	// sharded machine engine; CapFullScale marks the experiment whose
	// full-geometry budgets are gated behind GRAPHMEM_FULLSCALE=1 in
	// CI. TestCapsMatchCells derives CapSharded from each experiment's
	// recorded cells.
	Caps string
}

// Capability labels used in Experiment.Caps.
const (
	CapSharded   = "sharded"
	CapFullScale = "full-scale-gated"
)

// Registry lists every experiment in presentation order.
var Registry = []Experiment{
	{"table1", "Table 1", "simulated system parameters", (*Suite).Table1, ""},
	{"table2", "Table 2", "applications and inputs", (*Suite).Table2, ""},
	{"fig1", "Fig. 1", "THP speedup: fresh boot vs memory pressure", (*Suite).Fig1, ""},
	{"fig2", "Fig. 2", "address translation overhead share", (*Suite).Fig2, ""},
	{"fig3", "Fig. 3", "TLB miss rates, 4KB vs THP", (*Suite).Fig3, ""},
	{"fig4", "Fig. 4", "per-data-structure access breakdown", (*Suite).Fig4, ""},
	{"fig5", "Fig. 5", "per-structure madvise THP speedups (BFS)", (*Suite).Fig5, ""},
	{"fig6", "Fig. 6", "huge page supply timeline during initialization", (*Suite).Fig6, ""},
	{"fig7", "Fig. 7", "high pressure: natural vs optimized allocation order", (*Suite).Fig7, ""},
	{"sweep", "§4.3.1", "memory pressure sweep incl. oversubscription", (*Suite).PressureSweep, ""},
	{"fig8", "Fig. 8", "50% fragmentation: natural vs optimized order", (*Suite).Fig8, ""},
	{"fig9", "Fig. 9", "fragmentation level sweep (BFS)", (*Suite).Fig9, ""},
	{"fig10", "Fig. 10", "DBG + selective THP under pressure+frag", (*Suite).Fig10, ""},
	{"fig11", "Fig. 11", "selective THP sensitivity sweep (BFS)", (*Suite).Fig11, ""},
	{"dbg", "§5.1.2", "DBG preprocessing overhead", (*Suite).DBGOverhead, ""},
	{"headline", "Abstract", "headline metrics vs the paper's ranges", (*Suite).Headline, ""},
	{"pagecache", "§4.3", "page cache single-use memory interference", (*Suite).PageCache, ""},
	{"ext-baselines", "Related work", "Ingens/HawkEye-style engines vs selective THP", (*Suite).Baselines, ""},
	{"ext-auto", "§7 future work", "automatic profile-guided madvise plans", (*Suite).AutoSelective, ""},
	{"ext-cc", "§3.2", "Connected Components extension workload", (*Suite).CCWorkload, ""},
	{"ext-grid", "control", "road-network negative control", (*Suite).GridControl, ""},
	{"ext-rollout", "§7 future work", "online policy rollout via checkpoint forks", (*Suite).Rollout, ""},
	{"ext-shard", "§6 scaling", "sharded machine engine: modeled intra-run scaling", (*Suite).ShardScaling, CapSharded},
	{"ext-fullscale", "§4 geometry", "paper-geometry campaign: footprint & sharded kernels at true scale", (*Suite).Fullscale, CapSharded + "," + CapFullScale},
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range Registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// selectExperiments resolves ids (all of Registry when empty) in
// presentation order.
func selectExperiments(ids []string) ([]Experiment, error) {
	if len(ids) == 0 {
		return Registry, nil
	}
	var selected []Experiment
	for _, id := range ids {
		e, ok := Find(strings.TrimSpace(id))
		if !ok {
			return nil, fmt.Errorf("exp: unknown experiment %q (known: %s)", id, knownIDs())
		}
		selected = append(selected, e)
	}
	return selected, nil
}

// CampaignOptions configures RunCampaign.
type CampaignOptions struct {
	// Workers is the number of concurrent simulation workers (minimum
	// 1). The campaign's rendered output is byte-identical for every
	// value — parallelism only changes wall-clock time.
	Workers int

	// Progress, when non-nil, is invoked from worker goroutines as
	// frontier cells finish: worker is the executing worker's index,
	// done the number of cells completed so far, total the frontier
	// size. Calls are not serialized: they may overlap and arrive out
	// of done order, and each receives a distinct done in 1..total.
	Progress func(worker, done, total int, cell string)
}

// RunCampaign executes the selected experiments (all when ids is empty)
// in three phases: declare (record each experiment's Run to list the
// cells it requests, generating datasets through the graph promise
// cache), execute (fan the deduplicated frontier over a sched.Pool of
// opt.Workers workers), and render (run each experiment in registry
// order against the warmed run cache, streaming text tables to out).
// Rendering consumes only memoized, deterministic results, so the
// returned tables and everything written to out are byte-identical for
// every worker count.
func RunCampaign(s *Suite, ids []string, opt CampaignOptions, out io.Writer) (map[string][]*stats.Table, error) {
	selected, err := selectExperiments(ids)
	if err != nil {
		return nil, err
	}

	pool := sched.NewPool(opt.Workers)
	defer pool.Close()
	auditSuite := func() { check.Audit("exp.suite", func() error { return s.CheckInvariants(true) }) }

	// Phase 1 — declare. Recordings request graphs through the promise
	// cache, so dataset generation and reordering parallelize across
	// experiments here.
	cellLists := make([][]runCfg, len(selected))
	for i, e := range selected {
		pool.Go(func(int) { cellLists[i] = s.record(e.Run) })
	}
	pool.Wait()
	auditSuite()

	// Phase 2 — execute. Dedup the frontier in declaration order and
	// fan it out; duplicate requests that slip through (none, given the
	// key dedup) would collapse onto one promise anyway.
	seen := make(map[string]bool)
	var frontier []runCfg
	for _, cells := range cellLists {
		for _, c := range cells {
			if k := c.key(); !seen[k] {
				seen[k] = true
				frontier = append(frontier, c)
			}
		}
	}
	var progressMu sync.Mutex
	done := 0
	for _, c := range frontier {
		pool.Go(func(worker int) {
			s.run(c)
			if opt.Progress != nil {
				progressMu.Lock()
				done++
				n := done
				progressMu.Unlock()
				opt.Progress(worker, n, len(frontier), c.label())
			}
		})
	}
	pool.Wait()
	auditSuite()

	// Phase 3 — render, sequentially in registry order.
	results := make(map[string][]*stats.Table, len(selected))
	for _, e := range selected {
		fmt.Fprintf(out, "\n### %s (%s): %s\n", e.ID, e.Paper, e.Desc)
		tables := e.Run(s)
		results[e.ID] = tables
		for _, t := range tables {
			fmt.Fprintln(out, t.String())
		}
	}
	return results, nil
}

func knownIDs() string {
	ids := make([]string, len(Registry))
	for i, e := range Registry {
		ids[i] = e.ID
	}
	return strings.Join(ids, ", ")
}
