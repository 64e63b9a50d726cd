package exp

import (
	"bytes"
	"os"
	"reflect"
	"testing"
	"time"

	"graphmem/internal/core"
	"graphmem/internal/gen"
)

// TestCkptReloadSpeedup guards core.LoadCheckpoint against restaging:
// on the bench-scale flagship fullscale cell, loading a saved container
// must beat re-staging the node with core.Prepare by at least 3x, and
// the loaded checkpoint's forks must produce the staged forks' results.
// The benchmark's paper-node workload reloads its nodes this way for
// its warm pass, and the margin over restaging is what ROADMAP.md's
// checkpoint-load item works on. Wall-clock assertions are meaningless
// under -race or on a loaded host, so the gate runs only when
// GRAPHMEM_SPEEDUP_GATE is set; ci.sh step 15 opts in.
func TestCkptReloadSpeedup(t *testing.T) {
	if os.Getenv("GRAPHMEM_SPEEDUP_GATE") == "" {
		t.Skip("set GRAPHMEM_SPEEDUP_GATE=1 to run the wall-clock gate (ci.sh step 15)")
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
