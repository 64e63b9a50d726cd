package exp

import (
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"graphmem/internal/analytics"
	"graphmem/internal/gen"
)

// maxBytesPerSimGiB caps the simulator's host bytes per simulated GiB
// on the staged flagship full-scale node. The flagship measures
// 2,463,896 B per simulated GiB; a return to 16-byte frame words adds
// 2 MiB per simulated GiB and fails the cap.
const maxBytesPerSimGiB = 2_800_000

// TestFullscaleFootprintCeiling stages the ext-fullscale flagship cell
// at full scale (a 128 GB node) and bounds its simulator footprint per
// simulated GiB. Footprint bytes are a pure function of the staged
// state, so the bound needs no wall-clock opt-in. Staging is
// single-threaded, so the test skips under -race like the full-scale
// shape suites: it would add ~30 s to a package whose race run already
// nears the default test timeout, and check no concurrency.
func TestFullscaleFootprintCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("single-threaded full-scale staging; covered by the plain and simcheck runs")
	}
	s := NewSuite(gen.ScaleFull, nil)
	fp := s.FullscaleFootprint()
	if fp.SimulatedBytes < 100<<30 {
		t.Fatalf("flagship node is %d bytes, want >= 100 GB of staged geometry", fp.SimulatedBytes)
	}
	per := fp.BytesPerSimGB()
	t.Logf("footprint_fullscale total_bytes=%d bytes_per_sim_gb=%.0f", fp.TotalBytes(), per)
	if per > maxBytesPerSimGiB {
		t.Errorf("simulator footprint is %.0f B per simulated GiB, ceiling %d:\n%s",
			per, maxBytesPerSimGiB, fp.Table())
	}
}

// TestFullscaleGeometryGate is the paper-geometry CI gate: the
// ext-fullscale campaign must stage its {Kron25, Twit} × {BFS, PR} ×
// {THP, 4KB} grid of ≥100 GB nodes, run every sharded kernel
// end-to-end inside a wall-clock budget, render the flagship node's
// footprint table, and keep the whole process inside a host-memory
// budget.
//
// Budgets are deliberately loose multiples of the measured figures:
// they exist to catch order-of-magnitude staging and metadata
// regressions, not to benchmark the host. Wall-clock assertions are
// meaningless under -race or on an arbitrarily loaded machine, so the
// test skips unless GRAPHMEM_FULLSCALE is set; ci.sh step 14 opts in.
//
// When GRAPHMEM_CKPT_DIR is also set, the campaign keeps its staged
// nodes in the persistent store there, and repeated gate runs reload
// them from disk instead of re-faulting them. That exercises the store
// at full scale but saves no time: on a 2-vCPU host a warm run took
// 163.0 s against 149.6 s and 190.8 s cold.
func TestFullscaleGeometryGate(t *testing.T) {
	if os.Getenv("GRAPHMEM_FULLSCALE") == "" {
		t.Skip("set GRAPHMEM_FULLSCALE=1 to run the paper-geometry gate (ci.sh)")
	}
	s := NewSuite(gen.ScaleFull, nil)
	s.CkptDir = os.Getenv("GRAPHMEM_CKPT_DIR")
	if node := s.fullscaleNodeBytes(); node < 100<<30 {
		t.Fatalf("full-scale node is %d bytes, want >= 100 GB of staged geometry", node)
	}

	// The declared grid must stay a real campaign: at least two
	// datasets, two kernels, and two policies at full geometry.
	apps := make(map[analytics.App]bool)
	dss := make(map[gen.Dataset]bool)
	pols := make(map[string]bool)
	cells := s.fullscaleCells()
	for _, c := range cells {
		apps[c.app] = true
		dss[c.ds] = true
		pols[c.policy.Name] = true
		if c.shards <= 1 {
			t.Errorf("cell %s is not sharded", c.label())
		}
	}
	if len(apps) < 2 || len(dss) < 2 || len(pols) < 2 {
		t.Fatalf("campaign grid is %d kernels x %d datasets x %d policies, want >= 2 of each",
			len(apps), len(dss), len(pols))
	}

	start := time.Now()
	tables := s.Fullscale()
	wall := time.Since(start)
	if len(tables) < 2 || !strings.HasPrefix(tables[1].Title, "simulator footprint") {
		t.Fatalf("Fullscale rendered %d tables, want kernel campaign + footprint", len(tables))
	}
	if rows := len(tables[0].Rows); rows != len(cells) {
		t.Errorf("campaign table has %d rows, want %d (one per cell)", rows, len(cells))
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.Logf("fullscale_gate wall_s=%.1f heap_sys_mb=%.0f", wall.Seconds(), float64(ms.Sys)/(1<<20))

	// A cold run stages all eight 128 GB nodes and a warm run reloads
	// them from GRAPHMEM_CKPT_DIR; on a 2-vCPU Xeon host both took
	// 150–191 s. The budget leaves headroom for a slower or loaded
	// host — it catches order-of-magnitude staging regressions, not
	// few-percent drift.
	if wall > 15*time.Minute {
		t.Errorf("paper-geometry campaign took %v, budget 15m", wall)
	}
	// Each cell drops its staged node after its run, so one
	// 128 GB-geometry node is resident at a time: the campaign took
	// 2.1–2.2 GB from the OS cold and warm on that host. Eight resident
	// nodes take ~9–10 GB and blow this budget. Denser frame metadata
	// is TestFullscaleFootprintCeiling's to catch.
	if budget := uint64(4 << 30); ms.Sys > budget {
		t.Errorf("process took %d bytes from the OS, budget %d", ms.Sys, budget)
	}
}
