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

// The experiments in this file extend the paper's evaluation: the
// related-work baselines it discusses but does not run (Ingens- and
// HawkEye-style management), and the "automated systems" future
// direction implemented as static-profile-guided madvise.

// Baselines compares the huge page management engines under the paper's
// hostile environment: stock Linux THP, utilization-threshold
// (Ingens-like), access-heat (HawkEye-like), and the paper's manual
// DBG+selective strategy.
func (s *Suite) Baselines() []*stats.Table {
	t := stats.NewTable(
		"Extension: management engines under pressure+fragmentation (BFS)",
		"dataset", "thp", "ingens", "hawkeye", "dbg+sel50", "hawkeye-huge", "sel-huge")
	t.Note = "speedups vs 4KB fresh baseline; huge columns are MB of huge-backed memory at end"
	for _, ds := range gen.AllDatasets {
		base := s.baseline(analytics.BFS, ds)
		env := s.envFragmented(analytics.BFS, ds, lowPressureGB, 0.5)
		thp := s.run(runCfg{app: analytics.BFS, ds: ds, method: reorder.Identity,
			order: analytics.Natural, policy: core.THPAlways(), env: env})
		ing := s.run(runCfg{app: analytics.BFS, ds: ds, method: reorder.Identity,
			order: analytics.Natural, policy: core.IngensLike(), env: env})
		hawk := s.run(runCfg{app: analytics.BFS, ds: ds, method: reorder.Identity,
			order: analytics.Natural, policy: core.HawkEyeLike(), env: env})
		sel := s.run(runCfg{app: analytics.BFS, ds: ds, method: reorder.DBG,
			order: analytics.Natural, policy: core.SelectiveTHP(0.5), env: env})
		t.AddRow(string(ds),
			stats.F(s.speedup(base, thp), 3),
			stats.F(s.speedup(base, ing), 3),
			stats.F(s.speedup(base, hawk), 3),
			stats.F(s.speedup(base, sel), 3),
			stats.MB(hawk.TotalHugeBytes),
			stats.MB(sel.TotalHugeBytes))
	}
	return []*stats.Table{t}
}

// AutoSelective compares the automatic profile-guided madvise plan
// against the manual DBG+prefix strategy — on original (scattered-hub)
// and DBG datasets — under the headline environment. The automatic plan
// needs no reordering: it finds hot regions wherever they live.
func (s *Suite) AutoSelective() []*stats.Table {
	t := stats.NewTable(
		"Extension: automatic profile-guided THP vs manual selective (BFS)",
		"dataset", "manual:dbg+sel20", "auto:orig", "auto:dbg", "auto-huge-share")
	for _, ds := range gen.AllDatasets {
		base := s.baseline(analytics.BFS, ds)
		env := s.envFragmented(analytics.BFS, ds, lowPressureGB, 0.5)
		manual := s.run(runCfg{app: analytics.BFS, ds: ds, method: reorder.DBG,
			order: analytics.Natural, policy: core.SelectiveTHP(0.2), env: env})
		// Budget the auto plan identically to manual sel-20: 20% of the
		// property array.
		e := s.graph(ds, false, reorder.Identity)
		budget := uint64(float64(e.g.N) * 8 * 0.2)
		if budget < 2<<20 {
			budget = 2 << 20
		}
		autoOrig := s.run(runCfg{app: analytics.BFS, ds: ds, method: reorder.Identity,
			order: analytics.Natural, policy: core.AutoTHP(budget), env: env})
		autoDBG := s.run(runCfg{app: analytics.BFS, ds: ds, method: reorder.DBG,
			order: analytics.Natural, policy: core.AutoTHP(budget), env: env})
		t.AddRow(string(ds),
			stats.F(s.speedup(base, manual), 3),
			stats.F(s.speedup(base, autoOrig), 3),
			stats.F(s.speedup(base, autoDBG), 3),
			stats.Pct(autoDBG.HugeShareOfFootprint()))
	}
	return []*stats.Table{t}
}

// CCWorkload runs the Connected Components extension through the main
// policy comparison, showing the paper's findings transfer to workloads
// built on its building blocks.
func (s *Suite) CCWorkload() []*stats.Table {
	t := stats.NewTable(
		"Extension: Connected Components under the paper's policies",
		"dataset", "thp-fresh", "thp-pressured", "dbg+sel50")
	for _, ds := range gen.AllDatasets {
		base := s.run(runCfg{app: analytics.CC, ds: ds, method: reorder.Identity,
			order: analytics.Natural, policy: core.Base4K(), env: core.FreshBoot()})
		fresh := s.run(runCfg{app: analytics.CC, ds: ds, method: reorder.Identity,
			order: analytics.Natural, policy: core.THPAlways(), env: core.FreshBoot()})
		envP := s.envPressured(analytics.CC, ds, highPressureGB)
		press := s.run(runCfg{app: analytics.CC, ds: ds, method: reorder.Identity,
			order: analytics.Natural, policy: core.THPAlways(), env: envP})
		envF := s.envFragmented(analytics.CC, ds, lowPressureGB, 0.5)
		sel := s.run(runCfg{app: analytics.CC, ds: ds, method: reorder.DBG,
			order: analytics.Natural, policy: core.SelectiveTHP(0.5), env: envF})
		t.AddRow(string(ds),
			stats.F(s.speedup(base, fresh), 3),
			stats.F(s.speedup(base, press), 3),
			stats.F(s.speedup(base, sel), 3))
	}
	return []*stats.Table{t}
}

// GridControl is the negative control for the paper's *selective*
// strategy: a road-network-like 2D grid has perfectly uniform degree,
// so there is no hot subset for DBG to concentrate or for a madvise
// prefix to capture (per-region heat Gini ≈ 0). System-wide THP still
// helps — the BFS wavefront streams a footprint far beyond TLB reach —
// but partial coverage is strictly worse than full coverage and
// preprocessing is pure overhead. If selective ever beat THP here, the
// model would be broken. Its graph lies outside the cell space, so it
// calls core.Run directly and requests no cells; a recording does
// nothing.
func (s *Suite) GridControl() []*stats.Table {
	if s.recording() {
		return nil
	}
	var side int
	switch s.Scale {
	case gen.ScaleTest:
		side = 64
	case gen.ScaleBench:
		side = 256
	default:
		side = 1024
	}
	g := gen.Grid(side, side, false, 0, 7)

	runOne := func(p core.Policy, method reorder.Method, env core.Environment) *core.RunResult {
		spec := core.RunSpec{
			Graph: g, App: analytics.BFS, Reorder: method,
			Order: analytics.Natural, Policy: p, Env: env,
			TLB: s.TLB,
		}
		r, err := core.Run(spec)
		if err != nil {
			panic(check.Failf("exp: %v", err))
		}
		return r
	}

	t := stats.NewTable(
		"Extension: grid negative control (BFS on a road-network-like graph)",
		"metric", "value")
	base := runOne(core.Base4K(), reorder.Identity, core.FreshBoot())
	thp := runOne(core.THPAlways(), reorder.Identity, core.FreshBoot())
	dbgSel := runOne(core.SelectiveTHP(0.5), reorder.DBG, core.FreshBoot())
	t.AddRow("vertices", fmt.Sprint(g.N))
	t.AddRow("4k dtlb miss", stats.Pct(base.Kernel.TLB.DTLBMissRate()))
	t.AddRow("thp speedup", stats.F(s.speedup(base, thp), 3))
	t.AddRow("dbg+sel50 speedup", stats.F(s.speedup(base, dbgSel), 3))
	t.Note = "uniform heat: no hot subset exists, so selective policies cannot beat full THP here"
	return []*stats.Table{t}
}

// fig6Cfg names one Fig. 6 cell: a pressured BFS/Kron run with the
// huge-page-economy timeline sampled ~12 times across initialization
// (interval from the expected init access count — WSS/64 cache lines
// at tens of cycles each).
func (s *Suite) fig6Cfg(order analytics.AllocOrder) runCfg {
	e := s.graph(gen.Kron25, false, reorder.Identity)
	wss := analytics.WSSBytes(analytics.BFS, e.g)
	return runCfg{
		app: analytics.BFS, ds: gen.Kron25, method: reorder.Identity,
		order: order, policy: core.THPAlways(),
		env:         s.envPressured(analytics.BFS, gen.Kron25, highPressureGB),
		sampleEvery: wss / 64 * 30 / 12,
	}
}

// Fig6 reproduces the paper's Fig. 6 narrative with measured data: as
// initialization streams the arrays in (natural order), the free 2MB
// supply drains into the CSR arrays and runs out before the property
// array arrives; with the graph-optimized order the property array
// drinks first.
func (s *Suite) Fig6() []*stats.Table {
	var tables []*stats.Table
	for _, order := range []analytics.AllocOrder{analytics.Natural, analytics.PropFirst} {
		e := s.graph(gen.Kron25, false, reorder.Identity)
		r := s.run(s.fig6Cfg(order))
		t := stats.NewTable(
			fmt.Sprintf("Fig 6 (measured): huge page supply during init, %s order", order),
			"sample", "free-2MB-blocks", "edge-huge", "prop-huge")
		samples := r.Supply
		if len(samples) > 14 {
			samples = samples[:14]
		}
		for i, sm := range samples {
			t.AddRow(fmt.Sprint(i),
				fmt.Sprint(sm.FreeHugeBlocks),
				stats.MB(sm.EdgeHugeBytes),
				stats.MB(sm.PropHugeBytes))
		}
		t.Note = fmt.Sprintf("end state: prop huge = %s of %s", stats.MB(r.PropHugeBytes),
			stats.MB(uint64(e.g.N)*8))
		tables = append(tables, t)
	}
	return tables
}
