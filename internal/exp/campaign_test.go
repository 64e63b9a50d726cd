package exp

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"graphmem/internal/analytics"
	"graphmem/internal/gen"
	"graphmem/internal/reorder"
	"graphmem/internal/stats"
)

// rendered is one campaign's output: the tables by experiment, every
// byte surface expdriver exposes — streamed text, the markdown tables,
// and the CSV tables, all in registry order — and the distinct-run
// count (which the markdown header embeds).
type rendered struct {
	res                 map[string][]*stats.Table
	text, markdown, csv string
	runs                int
}

// renderAll runs the campaign on n workers at the given scale (the full
// registry when ids is empty) and returns its output.
func renderAll(t *testing.T, scale gen.Scale, ids []string, workers int) *rendered {
	t.Helper()
	s := NewSuite(scale, nil)
	s.PRMaxIters = 2
	var out strings.Builder
	res, err := RunCampaign(s, ids, CampaignOptions{Workers: workers}, &out)
	if err != nil {
		t.Fatal(err)
	}
	var md, cs strings.Builder
	for _, e := range Registry {
		tables, ok := res[e.ID]
		if !ok {
			continue
		}
		for i, tb := range tables {
			md.WriteString(tb.Markdown())
			fmt.Fprintf(&cs, "-- %s_%d --\n%s", e.ID, i, tb.CSV())
		}
	}
	return &rendered{res, out.String(), md.String(), cs.String(), s.CachedRunCount()}
}

var (
	registryRefMu sync.Mutex
	registryRef   *rendered
)

// registryReference renders the full registry at test scale on one
// worker, once per test binary. TestFullRegistryAtTestScale smoke-checks
// that pass and TestCampaignDeterministicAcrossWorkers compares the
// other worker counts against it, so the package pays for one -j 1
// full-registry pass. A pass that fails caches nothing.
func registryReference(t *testing.T) *rendered {
	t.Helper()
	registryRefMu.Lock()
	defer registryRefMu.Unlock()
	if registryRef == nil {
		registryRef = renderAll(t, gen.ScaleTest, nil, 1)
	}
	return registryRef
}

// TestCampaignDeterministicAcrossWorkers: the full registry, rendered
// through every output surface, must be byte-identical for every
// worker count.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full registry several times")
	}
	if raceEnabled {
		t.Skip("several full-registry passes overrun the race-instrumented timeout; TestPromiseCacheUnderRace covers the concurrency")
	}
	ref := registryReference(t)
	for _, workers := range []int{2, 4, 8} {
		got := renderAll(t, gen.ScaleTest, nil, workers)
		if got.runs != ref.runs {
			t.Errorf("-j %d executed %d distinct runs, -j 1 executed %d", workers, got.runs, ref.runs)
		}
		if got.text != ref.text {
			t.Errorf("-j %d text output differs from -j 1 (%d vs %d bytes)", workers, len(got.text), len(ref.text))
		}
		if got.markdown != ref.markdown {
			t.Errorf("-j %d markdown differs from -j 1", workers)
		}
		if got.csv != ref.csv {
			t.Errorf("-j %d CSV differs from -j 1", workers)
		}
	}
}

// TestCampaignDeterministicAtBenchScale is the committed bench-scale
// assertion from the acceptance criteria, on an experiment subset to
// bound runtime: -j 1 and -j 4 must agree byte-for-byte.
func TestCampaignDeterministicAtBenchScale(t *testing.T) {
	if testing.Short() {
		t.Skip("bench-scale simulation")
	}
	if raceEnabled {
		t.Skip("bench-scale under race instrumentation is too slow")
	}
	ids := []string{"fig5", "pagecache"}
	r1 := renderAll(t, gen.ScaleBench, ids, 1)
	r4 := renderAll(t, gen.ScaleBench, ids, 4)
	if r1.runs != r4.runs {
		t.Errorf("distinct runs: -j 1 %d, -j 4 %d", r1.runs, r4.runs)
	}
	if r1.text != r4.text || r1.markdown != r4.markdown || r1.csv != r4.csv {
		t.Errorf("bench-scale output differs between -j 1 and -j 4 (text %v, md %v, csv %v)",
			r1.text == r4.text, r1.markdown == r4.markdown, r1.csv == r4.csv)
	}
}

// TestCampaignProgressAccounting checks the Progress callback: done
// counts each frontier cell exactly once, in 1..total, and worker
// indices stay in range. Calls may overlap, so the callback locks.
func TestCampaignProgressAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a campaign")
	}
	const workers = 3
	s := testSuite()
	var mu sync.Mutex
	seen := make(map[int]bool)
	total := -1
	opt := CampaignOptions{Workers: workers, Progress: func(worker, done, tot int, cell string) {
		mu.Lock()
		defer mu.Unlock()
		if worker < 0 || worker >= workers {
			t.Errorf("worker index %d outside [0,%d)", worker, workers)
		}
		if done < 1 || done > tot {
			t.Errorf("done=%d outside [1,%d]", done, tot)
		}
		if seen[done] {
			t.Errorf("done=%d reported twice", done)
		}
		seen[done] = true
		total = tot
		if cell == "" {
			t.Error("empty cell label")
		}
	}}
	if _, err := RunCampaign(s, []string{"fig4", "fig5"}, opt, &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != total {
		t.Errorf("progress reported %d cells, frontier total %d", len(seen), total)
	}
}

func TestCampaignUnknownExperiment(t *testing.T) {
	s := testSuite()
	if _, err := RunCampaign(s, []string{"nope"}, CampaignOptions{Workers: 2}, &strings.Builder{}); err == nil {
		t.Fatal("campaign accepted an unknown experiment id")
	}
}

// TestPromiseCacheUnderRace hammers the suite's promise caches with
// duplicate cell requests from many goroutines — the run and graph
// caches must compute once per key and hand every requester the
// identical pointer. This test is the designated -race exercise for the
// suite (the full-campaign determinism tests skip under race).
func TestPromiseCacheUnderRace(t *testing.T) {
	s := testSuite()
	cfgs := []runCfg{
		baselineCfg(analytics.BFS, gen.Wiki),
		baselineCfg(analytics.PR, gen.Wiki),
		s.fig6Cfg(analytics.Natural),
	}
	const dup = 8
	got := make([]map[string]interface{}, dup)
	var wg sync.WaitGroup
	for i := 0; i < dup; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m := make(map[string]interface{})
			for _, c := range cfgs {
				m["run:"+c.key()] = s.run(c)
			}
			m["graph"] = s.graph(gen.Wiki, false, reorder.DBG)
			got[i] = m
		}(i)
	}
	wg.Wait()
	for i := 1; i < dup; i++ {
		for k, v := range got[0] {
			if got[i][k] != v {
				t.Fatalf("goroutine %d saw a different pointer for %s", i, k)
			}
		}
	}
	if n := s.CachedRunCount(); n != len(cfgs) {
		t.Errorf("CachedRunCount = %d, want %d (duplicates must collapse)", n, len(cfgs))
	}
	if err := s.CheckInvariants(true); err != nil {
		t.Error(err)
	}
}

// TestCapsMatchCells proves every registry entry's advertised capability
// list (what expdriver -list prints) is derived from, not asserted over,
// its recorded cells: sharded iff some cell runs more than one shard,
// and full-scale-gated reserved for the experiment the CI fullscale
// gate wraps.
func TestCapsMatchCells(t *testing.T) {
	known := map[string]bool{CapSharded: true, CapFullScale: true}
	for _, e := range Registry {
		t.Run(e.ID, func(t *testing.T) {
			caps := make(map[string]bool)
			if e.Caps != "" {
				for _, c := range strings.Split(e.Caps, ",") {
					if !known[c] {
						t.Errorf("unknown capability %q", c)
					}
					if caps[c] {
						t.Errorf("duplicate capability %q", c)
					}
					caps[c] = true
				}
			}
			if caps[CapFullScale] != (e.ID == "ext-fullscale") {
				t.Errorf("full-scale-gated = %v, want it on ext-fullscale only", caps[CapFullScale])
			}
			var sharded bool
			for _, c := range testSuite().record(e.Run) {
				if c.shards > 1 {
					sharded = true
				}
			}
			if caps[CapSharded] != sharded {
				t.Errorf("sharded = %v, but cells derive %v", caps[CapSharded], sharded)
			}
		})
	}
}

// TestCellsMatchRuns proves every experiment's recording lists exactly
// the cells its real Run requests — the invariant that makes campaign
// run counts (and the parallel speedup) independent of worker count. A
// recorded cell the real Run never requests would waste a simulation;
// a requested cell the recording missed would serialize into the
// render phase. Experiments that record nothing must request nothing
// through the suite (table1, table2, and ext-grid and ext-rollout,
// which simulate outside the cell space). Each experiment gets its own
// suite, and library code only reads the environment, so the
// experiments run in parallel with each other and with
// TestFullRegistryAtTestScale.
func TestCellsMatchRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	t.Parallel()
	for _, e := range Registry {
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			s := testSuite()
			recorded := make(map[string]bool)
			for _, c := range s.record(e.Run) {
				recorded[c.key()] = true
			}
			// run is the only writer of the run cache, so after a real
			// Run on a fresh suite the cache holds exactly the cells Run
			// requested.
			e.Run(s)
			var missing []string
			for k := range recorded {
				if _, ok := s.runs.Peek(k); !ok {
					missing = append(missing, k)
				}
			}
			sort.Strings(missing)
			for _, k := range missing {
				t.Errorf("recorded but never requested: %s", k)
			}
			if n := s.CachedRunCount(); n != len(recorded) {
				t.Errorf("Run requested %d distinct cells, the recording listed %d", n, len(recorded))
			}
		})
	}
}

// TestRecordingSimulatesNothing proves recording is free of simulation:
// recording every experiment memoizes no run, so the declare phase
// costs graph generation and nothing more.
func TestRecordingSimulatesNothing(t *testing.T) {
	s := testSuite()
	total := 0
	for _, e := range Registry {
		total += len(s.record(e.Run))
	}
	if total == 0 {
		t.Fatal("recording the registry listed no cells")
	}
	if n := s.CachedRunCount(); n != 0 {
		t.Errorf("recording memoized %d runs, want 0", n)
	}
}
