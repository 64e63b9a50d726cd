package exp

import (
	"strings"
	"testing"

	"graphmem/internal/analytics"
	"graphmem/internal/gen"
	"graphmem/internal/reorder"
	"graphmem/internal/stats"
)

func testSuite() *Suite {
	s := NewSuite(gen.ScaleTest, nil)
	s.PRMaxIters = 2
	return s
}

func TestGraphCacheReuses(t *testing.T) {
	s := testSuite()
	a := s.graph(gen.Wiki, false, reorder.Identity)
	b := s.graph(gen.Wiki, false, reorder.Identity)
	if a != b {
		t.Fatal("graph not cached")
	}
	d := s.graph(gen.Wiki, false, reorder.DBG)
	if d == a || d.cost.EdgeTraversals == 0 {
		t.Fatal("DBG variant not built with cost")
	}
}

func TestRunMemoized(t *testing.T) {
	s := testSuite()
	r1 := s.baseline(analytics.BFS, gen.Wiki)
	n := s.CachedRunCount()
	r2 := s.baseline(analytics.BFS, gen.Wiki)
	if r1 != r2 || s.CachedRunCount() != n {
		t.Fatal("run not memoized")
	}
}

func TestDeltaScalesWithPaperWSS(t *testing.T) {
	s := testSuite()
	// +1GB on Kron/BFS (paper WSS 8.5GB) must scale to a larger
	// simulated delta than +1GB on Twitter/BFS (paper WSS 16GB) for
	// similarly-sized simulated graphs — the ratio is what matters.
	dk := float64(s.delta(analytics.BFS, gen.Kron25, 1))
	wssK := float64(analytics.WSSBytes(analytics.BFS, s.graph(gen.Kron25, false, reorder.Identity).g))
	if got := dk / wssK; got < 1/8.5*0.99 || got > 1/8.5*1.01 {
		t.Fatalf("delta/wss = %v, want 1/8.5", got)
	}
}

func TestFindAndRegistry(t *testing.T) {
	if _, ok := Find("fig1"); !ok {
		t.Fatal("fig1 missing")
	}
	if _, ok := Find("nope"); ok {
		t.Fatal("found nonexistent experiment")
	}
	seen := map[string]bool{}
	for _, e := range Registry {
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil || e.Desc == "" {
			t.Fatalf("incomplete registry entry %s", e.ID)
		}
	}
}

// TestRunAndRenderUnknownID checks that a one-worker campaign rejects a
// selection holding an unknown id as a whole, before it runs or renders
// any experiment, even the known ones listed first.
func TestRunAndRenderUnknownID(t *testing.T) {
	s := testSuite()
	var out strings.Builder
	if _, err := RunCampaign(s, []string{"table1", "bogus"}, CampaignOptions{Workers: 1}, &out); err == nil {
		t.Fatal("unknown id accepted")
	}
	if out.Len() != 0 {
		t.Errorf("rendered %d bytes before rejecting the selection", out.Len())
	}
	if n := s.CachedRunCount(); n != 0 {
		t.Errorf("ran %d cells before rejecting the selection", n)
	}
}

func TestTablesSmall(t *testing.T) {
	// Run the cheap structural experiments end to end at test scale.
	s := testSuite()
	out := &strings.Builder{}
	res, err := RunCampaign(s, []string{"table1", "table2", "fig4"}, CampaignOptions{Workers: 1}, out)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("results = %d", len(res))
	}
	if !strings.Contains(out.String(), "STLB") {
		t.Fatal("table1 content missing")
	}
	f4 := res["fig4"][0]
	if len(f4.Rows) < 9 { // 3 apps × ≥3 arrays
		t.Fatalf("fig4 rows = %d", len(f4.Rows))
	}
}

func TestFig5ShapeAtTestScale(t *testing.T) {
	// Even at tiny scale the table must produce parsable rows for all
	// datasets (values may be ~1.0 because arrays are sub-2MB).
	s := testSuite()
	tbl := s.Fig5()[0]
	if len(tbl.Rows) != len(gen.AllDatasets) {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, r := range tbl.Rows {
		for _, c := range r[1:] {
			if !strings.ContainsRune(c, '.') {
				t.Fatalf("non-numeric cell %q", c)
			}
		}
	}
}

// TestFullRegistryAtTestScale runs every registered experiment at tiny
// scale: a smoke test that no experiment panics, divides by zero, or
// regresses structurally. It checks the -j 1 pass that
// TestCampaignDeterministicAcrossWorkers compares against, and it runs
// under -race too.
func TestFullRegistryAtTestScale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	res := registryReference(t).res
	if len(res) != len(Registry) {
		t.Fatalf("ran %d of %d experiments", len(res), len(Registry))
	}
	for id, tables := range res {
		if len(tables) == 0 {
			t.Fatalf("%s produced no tables", id)
		}
		for _, tb := range tables {
			if len(tb.Rows) == 0 {
				t.Fatalf("%s produced an empty table %q", id, tb.Title)
			}
		}
	}
}

func TestExtensionExperimentsSmall(t *testing.T) {
	s := testSuite()
	for _, fn := range []func() []*stats.Table{
		func() []*stats.Table { return s.Baselines() },
		func() []*stats.Table { return s.AutoSelective() },
		func() []*stats.Table { return s.CCWorkload() },
	} {
		tables := fn()
		if len(tables) != 1 || len(tables[0].Rows) != len(gen.AllDatasets) {
			t.Fatalf("extension table malformed: %+v", tables[0].Title)
		}
	}
}
