package cli

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphmem/internal/analytics"
	"graphmem/internal/gen"
	"graphmem/internal/graph"
	"graphmem/internal/oskernel"
	"graphmem/internal/reorder"
)

func TestParseScale(t *testing.T) {
	for name, want := range map[string]gen.Scale{
		"full": gen.ScaleFull, "bench": gen.ScaleBench, "test": gen.ScaleTest,
	} {
		got, err := ParseScale(name)
		if err != nil || got != want {
			t.Fatalf("ParseScale(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Fatal("bad scale accepted")
	}
}

func TestParseApp(t *testing.T) {
	for _, name := range []string{"bfs", "sssp", "pr", "cc", "bc"} {
		if _, err := ParseApp(name); err != nil {
			t.Fatalf("ParseApp(%q): %v", name, err)
		}
	}
	if _, err := ParseApp("dijkstra"); err == nil {
		t.Fatal("bad app accepted")
	}
}

func TestParseDataset(t *testing.T) {
	for _, name := range []string{"kr25", "twit", "web", "wiki"} {
		if _, err := ParseDataset(name); err != nil {
			t.Fatalf("ParseDataset(%q): %v", name, err)
		}
	}
	if _, err := ParseDataset("livejournal"); err == nil {
		t.Fatal("bad dataset accepted")
	}
}

func TestParseReorderAndOrder(t *testing.T) {
	if m, err := ParseReorder("dbg"); err != nil || m != reorder.DBG {
		t.Fatal("dbg parse failed")
	}
	if _, err := ParseReorder("zigzag"); err == nil {
		t.Fatal("bad method accepted")
	}
	if o, err := ParseOrder("prop-first"); err != nil || o != analytics.PropFirst {
		t.Fatal("prop-first parse failed")
	}
	if _, err := ParseOrder("random"); err == nil {
		t.Fatal("bad order accepted")
	}
}

func TestParsePolicyVariants(t *testing.T) {
	g := gen.Generate(gen.Wiki, gen.ScaleTest, false)
	for name, mode := range map[string]oskernel.THPMode{
		"4k":           oskernel.ModeNever,
		"thp":          oskernel.ModeAlways,
		"madvise-prop": oskernel.ModeMadvise,
		"selective":    oskernel.ModeMadvise,
		"hugetlb":      oskernel.ModeMadvise,
		"auto":         oskernel.ModeMadvise,
		"ingens":       oskernel.ModeAlways,
		"hawkeye":      oskernel.ModeAlways,
	} {
		p, err := ParsePolicy(name, 0.3, analytics.BFS, g)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", name, err)
		}
		if p.Mode != mode {
			t.Fatalf("ParsePolicy(%q).Mode = %v, want %v", name, p.Mode, mode)
		}
	}
	if _, err := ParsePolicy("yolo", 0.5, analytics.BFS, g); err == nil {
		t.Fatal("bad policy accepted")
	}
	// A -sel outside (0,1] (or NaN) would reach core.SelectiveTHP and
	// core.HugetlbSelective, which panic on it. auto's budget is sel
	// times the working set, so sel must be positive and the budget must
	// fit in a uint64: Go leaves converting a float outside its range to
	// the platform.
	for _, c := range []struct {
		policy string
		sel    float64
	}{
		{"selective", 2}, {"selective", 0}, {"selective", -1}, {"selective", math.NaN()},
		{"hugetlb", 2}, {"hugetlb", 0}, {"hugetlb", math.NaN()},
		{"auto", math.NaN()}, {"auto", 0}, {"auto", -1},
		{"auto", math.Inf(1)}, {"auto", math.Inf(-1)}, {"auto", 1e300},
	} {
		_, err := ParsePolicy(c.policy, c.sel, analytics.BFS, g)
		if err == nil || !strings.Contains(err.Error(), "-sel") {
			t.Fatalf("ParsePolicy(%q, %v) = %v, want an error naming -sel", c.policy, c.sel, err)
		}
	}
	for _, policy := range []string{"selective", "hugetlb", "auto"} {
		if _, err := ParsePolicy(policy, 1, analytics.BFS, g); err != nil {
			t.Fatalf("ParsePolicy(%q, 1): %v", policy, err)
		}
	}
}

func TestLoadGraphGenerates(t *testing.T) {
	g, err := LoadGraph("", gen.Wiki, gen.ScaleTest, false)
	if err != nil || g.N == 0 {
		t.Fatalf("generate path failed: %v", err)
	}
}

func TestLoadGraphFiles(t *testing.T) {
	dir := t.TempDir()
	g := gen.Generate(gen.Wiki, gen.ScaleTest, true)

	bin := filepath.Join(dir, "g.gmg")
	f, err := os.Create(bin)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.Write(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err := LoadGraph(bin, "", 0, false)
	if err != nil || got.N != g.N {
		t.Fatalf("GMG1 load: %v", err)
	}

	txt := filepath.Join(dir, "g.txt")
	f2, err := os.Create(txt)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteEdgeList(f2, g); err != nil {
		t.Fatal(err)
	}
	f2.Close()
	got2, err := LoadGraph(txt, "", 0, false)
	if err != nil || got2.NumEdges() != g.NumEdges() {
		t.Fatalf("edge-list load: %v", err)
	}

	if _, err := LoadGraph(filepath.Join(dir, "missing.gmg"), "", 0, false); err == nil {
		t.Fatal("missing file accepted")
	}
}
