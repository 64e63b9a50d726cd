package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
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

// TestRunCampaignUnknownID checks that a one-worker campaign rejects a
// selection holding an unknown id as a whole, before it runs or renders
// any experiment, even the known ones listed first.
func TestRunCampaignUnknownID(t *testing.T) {
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

// registryDigests pins every experiment's rendered bytes at test scale:
// the SHA-256 of its tables' String(), concatenated in order, from the
// -j 1 registry pass. A change that moves any table byte fails here; it
// must record the new digest and say in CHANGES.md why the bytes moved.
var registryDigests = map[string]string{
	"table1":        "35ad80b7d4031da0c45fe666291da0cf69b4b9cc4a8d3291d0892ac8e3739dac",
	"table2":        "23ef8e7dec759a913d4d9a50ae53a26d0a5ef78d78cf1a5a73965429ae66ae2c",
	"fig1":          "34279096f321400edc2c28f329d03da169b3c126f67cac7f447326e895f69070",
	"fig2":          "57c61fb6ead0ccd251185d22d49a4c010015ab62dd74ff9bdbf5dca54909ad7c",
	"fig3":          "a730f46614b398408b4268d5585b06ad72de74411355615a411b3616ab923c5d",
	"fig4":          "eb2e60cf112a4e2bde7d49d57c501396bb8648ccbfd021d2022ff8d31b180f26",
	"fig5":          "7014de70d3f45544e7a67f972a4a7e8eb201e19eda09246ac5c7c07a79ca1971",
	"fig6":          "42751f94fc796988a813fc0454448fb4c7090dc7ed55d3e5bfa5fc1fcbcdaef5",
	"fig7":          "6a9d0664a39c1d81cc351847eacb82ad1fdfb585c2a34d9ba85a9cc70f89123d",
	"sweep":         "faeed7e178ae3eacfc7c70ff13317db8cb635e381d3478dd69730bfa71812e86",
	"fig8":          "accb8a2347042983c0d462a494d9fd7a6226a3fe417cb65a6b2d3ac475c1a638",
	"fig9":          "12cce9bc2f6231e25d85feb3ff4dab7c31a35cba95b1c9d3fed3db2ee46421e0",
	"fig10":         "9ea217b4bbb4bac9a566e9df45b1fbee77e083f4b80a2bc4744c1020578d627a",
	"fig11":         "6525dc9a78ce79994d21ddd17725dbf9b7291888e3bf04075425d09ea5bf0bad",
	"dbg":           "a7b97d0f3431ab7569bfd08ff0b3a52b85e941da700dd3569638b77f2f8ab589",
	"headline":      "f71c95e6d3e605b81a8c0167a107865c241aebb037dc357d47738bd489df7d67",
	"pagecache":     "ffa5e6831182ddb539f7261ece008d41b1636acb6f9fc295b39f9812f8d5d294",
	"ext-baselines": "f8d5a3a669f6f71f232616594d086aac3aabd05abf95599995b006b8398a651e",
	"ext-auto":      "b159ed88456a61f7489dc8cff00221ba2750e16efb5cf902153ae892084842ae",
	"ext-cc":        "2d84d5c419d8fd64f1e9782e836c6718be225f720a737a6d06848b9aff16536d",
	"ext-grid":      "cfb82760ae364c4762e286cb4bc6b652ac6bdd7da7a88eb18f401a1b6f8ec525",
	"ext-rollout":   "edb20826a49d9e0e2fd440bc538f7d6532af31ce7bc9a46dd65c747ac79e7b12",
	"ext-shard":     "361f5d2779a527130e8214379daf0ff3dca991539776f2d9660868501757ee39",
	"ext-fullscale": "e7083de3c4e3b97f7230f13047ff9c80098a5909b4a25d53b6ba53ec9692da78",
}

// TestFullRegistryAtTestScale runs every registered experiment at tiny
// scale: a smoke test that no experiment panics, divides by zero, or
// regresses structurally, and that its tables still hash to
// registryDigests. It checks the -j 1 pass that
// TestCampaignDeterministicAcrossWorkers compares against, and it runs
// under -race too, in parallel with TestCellsMatchRuns's experiments.
func TestFullRegistryAtTestScale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	t.Parallel()
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
	for _, e := range Registry {
		h := sha256.New()
		for _, tb := range res[e.ID] {
			io.WriteString(h, tb.String())
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != registryDigests[e.ID] {
			t.Errorf("%s tables hash to %s, want %s: record the new digest and say why the bytes moved",
				e.ID, got, registryDigests[e.ID])
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
