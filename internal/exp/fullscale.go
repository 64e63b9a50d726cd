package exp

import (
	"fmt"

	"graphmem/internal/analytics"
	"graphmem/internal/check"
	"graphmem/internal/core"
	"graphmem/internal/gen"
	"graphmem/internal/reorder"
	"graphmem/internal/stats"
)

// The ext-fullscale experiment is a small campaign at the paper's node
// geometry: {Kron25, Twit} × {BFS, PR} × {THP always, 4KB baseline},
// each cell a ≥100 GB physical node with memhog pinning everything
// beyond WSS+Δ and the kernel phase sharded. Where ext-shard studies
// modeled intra-run scaling across all datasets on a mid-size node,
// ext-fullscale exists to prove the simulator itself survives true
// scale — tens of millions of frames of metadata per node, a
// terabyte-order address-space budget across the campaign — which is
// exactly what the compact frame metadata and sparse VM chunking pay
// for. With -ckpt-dir set, repeated campaigns reload each staged node
// instead of re-faulting it, which at this scale saves no time: on a
// 2-vCPU host a warm campaign took 163.0 s against 149.6 s and 190.8 s
// cold. The table reports the modeled kernel numbers per cell plus the
// flagship cell's stats.Footprint rows. TestFullscaleFootprintCeiling
// bounds the flagship's bytes per simulated GiB, and the env-gated CI
// test (GRAPHMEM_FULLSCALE=1) asserts wall-clock and RSS budgets on top.

// fullscaleShards is the shard count of every fullscale cell. Eight
// keeps shard forks of a paper-geometry node within a few GB of host
// RSS while still exercising the sharded bring-up path at scale.
const fullscaleShards = 8

// fullscaleNodeBytes is the modeled node memory of each ext-fullscale
// cell: the paper's evaluation machine holds hundreds of GB, so the
// full-scale cells stage 128 GB each. The bench and test scales shrink
// it so the experiment stays cheap enough for routine campaigns while
// running the same staging code.
func (s *Suite) fullscaleNodeBytes() uint64 {
	switch s.Scale {
	case gen.ScaleFull:
		return 128 << 30
	case gen.ScaleBench:
		return 2 << 30
	default:
		return 128 << 20
	}
}

// fullscaleCell names one cell of the paper-geometry campaign: the
// given kernel and dataset, pressured, on the big node, sharded.
func (s *Suite) fullscaleCell(app analytics.App, ds gen.Dataset, pol core.Policy) runCfg {
	env := s.envPressured(app, ds, highPressureGB)
	env.MemoryBytes = s.fullscaleNodeBytes()
	return runCfg{
		app: app, ds: ds, method: reorder.Identity,
		order: analytics.Natural, policy: pol,
		env:    env,
		shards: fullscaleShards,
	}
}

// fullscaleCfg is the campaign's flagship cell (BFS on Kron25 under
// THP), whose staged machine the footprint report and the CI budgets
// introspect. It leads fullscaleCells so a sequential campaign stages
// it first.
func (s *Suite) fullscaleCfg() runCfg {
	return s.fullscaleCell(analytics.BFS, gen.Kron25, core.THPAlways())
}

// fullscaleCells lists the campaign grid, flagship first, then the
// remaining dataset × kernel × policy combinations in table order.
func (s *Suite) fullscaleCells() []runCfg {
	cells := []runCfg{s.fullscaleCfg()}
	for _, ds := range []gen.Dataset{gen.Kron25, gen.Twit} {
		for _, app := range []analytics.App{analytics.BFS, analytics.PR} {
			for _, pol := range []core.Policy{core.THPAlways(), core.Base4K()} {
				c := s.fullscaleCell(app, ds, pol)
				if c.key() == cells[0].key() {
					continue
				}
				cells = append(cells, c)
			}
		}
	}
	return cells
}

// FullscaleCheckpoint stages the flagship cell's load phase, or
// reloads it from the store.
func (s *Suite) FullscaleCheckpoint() *core.Checkpoint {
	c := s.fullscaleCfg()
	return s.checkpoint(c.key(), s.spec(c))
}

// FullscaleFootprint returns the flagship checkpoint's
// simulator-footprint report. With GRAPHMEM_NO_SNAPSHOT set the
// checkpoint replays the load phase to report it, so the report is the
// same either way.
func (s *Suite) FullscaleFootprint() stats.Footprint {
	fp, ok := s.FullscaleCheckpoint().Footprint()
	if !ok {
		panic(check.Failf("exp: footprint %s: load-phase replay failed", s.fullscaleCfg().key()))
	}
	return fp
}

// Fullscale renders the paper-geometry campaign: per-cell node geometry
// and modeled kernel numbers, then the flagship machine's per-subsystem
// simulator footprint. Footprint bytes are a pure function of the
// staged machine state, so the tables are as byte-stable across worker
// counts as every other experiment's.
func (s *Suite) Fullscale() []*stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Extension: paper-geometry campaign (%d MB nodes, %d-shard kernels)",
			s.fullscaleNodeBytes()>>20, fullscaleShards),
		"kernel", "dataset", "policy", "makespan", "serial-sum", "scale-x", "speedup")
	cells := s.fullscaleCells()
	results := make([]*core.RunResult, len(cells))
	base := make(map[string]uint64)
	for i, c := range cells {
		results[i] = s.run(c)
		if c.policy.Name == core.Base4K().Name {
			base[string(c.app)+"|"+string(c.ds)] = results[i].TotalCycles
		}
	}
	if s.recording() {
		return nil // the footprint below stages outside run
	}
	for i, c := range cells {
		r := results[i]
		var sum uint64
		for _, kc := range r.ShardKernelCycles {
			sum += kc
		}
		speedup := "-"
		if b := base[string(c.app)+"|"+string(c.ds)]; b != 0 && c.policy.Name != core.Base4K().Name {
			speedup = stats.F(float64(b)/float64(r.TotalCycles), 3)
		}
		t.AddRow(string(c.app), string(c.ds), c.policy.Name,
			fmt.Sprint(r.KernelCycles),
			fmt.Sprint(sum),
			stats.F(float64(sum)/float64(r.KernelCycles), 3),
			speedup)
	}
	fp := s.FullscaleFootprint()
	return []*stats.Table{t, fp.Table()}
}
