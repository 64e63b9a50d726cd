package exp

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"graphmem/internal/core"
	"graphmem/internal/gen"
)

// renderWithStore runs the given experiments on a fresh suite, with the
// persistent store at dir (empty disables), and returns every rendered
// byte surface.
func renderWithStore(t *testing.T, dir string, ids []string, workers int) (text, markdown, csv string) {
	t.Helper()
	s := NewSuite(gen.ScaleTest, nil)
	s.PRMaxIters = 2
	s.CkptDir = dir
	var out strings.Builder
	res, err := RunCampaign(s, ids, CampaignOptions{Workers: workers}, &out)
	if err != nil {
		t.Fatal(err)
	}
	var md, cs strings.Builder
	for _, e := range Registry {
		for _, tb := range res[e.ID] {
			md.WriteString(tb.Markdown())
			cs.WriteString(tb.CSV())
		}
	}
	return out.String(), md.String(), cs.String()
}

// TestCheckpointStoreReloadMatchesFresh is the in-process version of
// ci.sh's reload gate: a campaign that populates the store, a second
// process-equivalent campaign that reloads every load phase from it
// (at -j 1 and -j 4), and a store-less campaign must all render
// byte-identical text, markdown, and CSV. It also proves the store was
// actually exercised: the populating run must leave container files
// behind, and a reloading run must not add any.
func TestCheckpointStoreReloadMatchesFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("runs one experiment four times")
	}
	if core.SnapshotsDisabled() {
		t.Skip("GRAPHMEM_NO_SNAPSHOT disables the store")
	}
	dir := t.TempDir()
	ids := []string{"fig5"}

	freshText, freshMD, freshCSV := renderWithStore(t, "", ids, 1)
	popText, popMD, popCSV := renderWithStore(t, dir, ids, 1)
	saved, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(saved) == 0 {
		t.Fatal("populating campaign saved no checkpoint containers")
	}
	reloadText, reloadMD, reloadCSV := renderWithStore(t, dir, ids, 1)
	reload4Text, reload4MD, reload4CSV := renderWithStore(t, dir, ids, 4)
	after, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(saved) {
		t.Errorf("reloading campaigns changed the store from %d to %d containers", len(saved), len(after))
	}

	for _, c := range []struct {
		name          string
		text, md, csv string
	}{
		{"populate", popText, popMD, popCSV},
		{"reload -j 1", reloadText, reloadMD, reloadCSV},
		{"reload -j 4", reload4Text, reload4MD, reload4CSV},
	} {
		if c.text != freshText {
			t.Errorf("%s text differs from the store-less campaign (%d vs %d bytes)", c.name, len(c.text), len(freshText))
		}
		if c.md != freshMD {
			t.Errorf("%s markdown differs from the store-less campaign", c.name)
		}
		if c.csv != freshCSV {
			t.Errorf("%s CSV differs from the store-less campaign", c.name)
		}
	}
}

// TestCheckpointStoreSurvivesCorruption proves the store degrades, never
// errors: campaigns pointed at a store of truncated containers restage
// and still render the store-less bytes.
func TestCheckpointStoreSurvivesCorruption(t *testing.T) {
	if testing.Short() {
		t.Skip("runs one experiment three times")
	}
	if core.SnapshotsDisabled() {
		t.Skip("GRAPHMEM_NO_SNAPSHOT disables the store")
	}
	dir := t.TempDir()
	ids := []string{"fig4"}
	freshText, _, _ := renderWithStore(t, "", ids, 1)
	renderWithStore(t, dir, ids, 1)
	saved, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil || len(saved) == 0 {
		t.Fatalf("populate left no containers (err %v)", err)
	}
	for _, path := range saved {
		img, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, img[:len(img)/2], 0o600); err != nil {
			t.Fatal(err)
		}
	}
	text, _, _ := renderWithStore(t, dir, ids, 1)
	if text != freshText {
		t.Error("campaign over a corrupted store rendered different bytes than the store-less campaign")
	}
}

// TestCkptReloadSpeedup is the perf gate behind the persistent store's
// existence: on the bench-scale flagship fullscale cell, loading a
// saved container must beat re-staging the node by at least 3x, and the
// loaded checkpoint's forks must produce the staged forks' results.
// Wall-clock assertions are meaningless under -race or on a loaded
// host, so the gate runs only when GRAPHMEM_SPEEDUP_GATE is set; ci.sh
// step 15 opts in.
func TestCkptReloadSpeedup(t *testing.T) {
	if os.Getenv("GRAPHMEM_SPEEDUP_GATE") == "" {
		t.Skip("set GRAPHMEM_SPEEDUP_GATE=1 to run the wall-clock gate (ci.sh step 15)")
	}
	if core.SnapshotsDisabled() {
		t.Skip("GRAPHMEM_NO_SNAPSHOT disables checkpoints")
	}
	s := NewSuite(gen.ScaleBench, nil)
	c := s.fullscaleCfg()
	spec := s.spec(c) // generates the graph outside the timers
	key := c.key()

	const reps = 3
	stageMin := time.Duration(1 << 62)
	var cp *core.Checkpoint
	for i := 0; i < reps; i++ {
		start := time.Now()
		fresh, err := core.Prepare(spec)
		if err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < stageMin {
			stageMin = d
		}
		cp = fresh
	}

	var buf bytes.Buffer
	saveStart := time.Now()
	n, err := cp.Save(&buf, key)
	saveWall := time.Since(saveStart)
	if err != nil {
		t.Fatal(err)
	}

	loadMin := time.Duration(1 << 62)
	var loaded *core.Checkpoint
	for i := 0; i < reps; i++ {
		start := time.Now()
		lp, err := core.LoadCheckpoint(spec, key, bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < loadMin {
			loadMin = d
		}
		loaded = lp
	}

	fresh, err := cp.Run()
	if err != nil {
		t.Fatal(err)
	}
	reloaded, err := loaded.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, reloaded) {
		t.Error("reloaded checkpoint's fork produced a different RunResult than the staged one")
	}

	gbps := func(d time.Duration) float64 {
		return float64(n) / (1 << 30) / d.Seconds()
	}
	speedup := float64(stageMin) / float64(loadMin)
	t.Logf("ckpt_reload save_gbps=%.3f load_gbps=%.3f stage_ms=%.1f load_ms=%.1f speedup=%.2f bytes=%d",
		gbps(saveWall), gbps(loadMin), float64(stageMin.Microseconds())/1e3,
		float64(loadMin.Microseconds())/1e3, speedup, n)
	if speedup < 3 {
		t.Errorf("reload speedup %.2fx, want >= 3x over re-staging", speedup)
	}
}

// TestFullscaleSameFromStoreAndHatch renders ext-fullscale, whose
// footprint table introspects a staged machine, four ways: with no
// store, from a cold store, from a warm store, and with the snapshot
// hatch open. The footprint is a function of the staged state, so every
// rendering must carry the same bytes.
func TestFullscaleSameFromStoreAndHatch(t *testing.T) {
	if testing.Short() {
		t.Skip("runs one experiment four times")
	}
	t.Setenv("GRAPHMEM_NO_SNAPSHOT", "")
	dir := t.TempDir()
	ids := []string{"ext-fullscale"}
	refText, refMD, refCSV := renderWithStore(t, "", ids, 1)
	if !strings.Contains(refText, "simulator footprint") {
		t.Fatal("ext-fullscale rendered no footprint table")
	}
	coldText, coldMD, coldCSV := renderWithStore(t, dir, ids, 1)
	if saved, _ := filepath.Glob(filepath.Join(dir, "*.ckpt")); len(saved) == 0 {
		t.Fatal("cold-store campaign saved no checkpoint containers")
	}
	warmText, warmMD, warmCSV := renderWithStore(t, dir, ids, 1)
	t.Setenv("GRAPHMEM_NO_SNAPSHOT", "1")
	hatchText, hatchMD, hatchCSV := renderWithStore(t, "", ids, 1)
	for _, c := range []struct {
		name          string
		text, md, csv string
	}{
		{"cold store", coldText, coldMD, coldCSV},
		{"warm store", warmText, warmMD, warmCSV},
		{"snapshot hatch open", hatchText, hatchMD, hatchCSV},
	} {
		if c.text != refText {
			t.Errorf("%s text differs from the store-less rendering:\n%s\nstore-less:\n%s", c.name, c.text, refText)
		}
		if c.md != refMD || c.csv != refCSV {
			t.Errorf("%s markdown or CSV differs from the store-less rendering", c.name)
		}
	}
}
