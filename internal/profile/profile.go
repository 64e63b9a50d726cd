// Package profile derives page-size guidance from graph structure: it
// estimates, per 2MB region of the property array, how many accesses the
// push-based kernels will make, and turns a huge page budget into the
// madvise plan that captures the most misses. This is the paper's
// closing direction — "automated software … to exploit these trends" —
// implemented as a static analysis: in push-based kernels the property
// entry of vertex v is touched once per in-edge per relevant iteration,
// so in-degree IS the access-frequency oracle, no runtime profiling
// needed.
//
// The analysis is a pure function of the input graph: it reads only the
// CSR arrays, allocates its own heat and plan slices, and breaks heat
// ties by region index, so concurrent simulation cells profiling the
// same shared *graph.Graph get identical plans without synchronization.
package profile

import (
	"sort"

	"graphmem/internal/graph"
	"graphmem/internal/memsys"
)

// RegionHeat is the estimated access count for one 2MB-aligned region of
// the property array.
type RegionHeat struct {
	Region int
	Heat   uint64
}

// Profile summarizes the property-array access distribution of a graph
// under a given property entry size.
type Profile struct {
	EntryBytes    uint64
	Regions       int
	TotalAccesses uint64
	Heat          []uint64 // per region, index = region number
}

// New builds a profile for a graph whose property entries are entryBytes
// wide (8 for BFS/SSSP, 16 for PageRank).
func New(g *graph.Graph, entryBytes uint64) *Profile {
	perRegion := memsys.HugeSize / entryBytes
	regions := (uint64(g.N) + perRegion - 1) / perRegion
	p := &Profile{
		EntryBytes: entryBytes,
		Regions:    int(regions),
		Heat:       make([]uint64, regions),
	}
	in := g.InDegrees()
	for v, d := range in {
		p.Heat[uint64(v)/perRegion] += uint64(d)
		p.TotalAccesses += uint64(d)
	}
	return p
}

// Hottest returns the regions sorted by descending heat (ties by lower
// region number, so results are deterministic).
func (p *Profile) Hottest() []RegionHeat {
	rs := make([]RegionHeat, p.Regions)
	for i, h := range p.Heat {
		rs[i] = RegionHeat{Region: i, Heat: h}
	}
	sort.SliceStable(rs, func(a, b int) bool {
		if rs[a].Heat != rs[b].Heat {
			return rs[a].Heat > rs[b].Heat
		}
		return rs[a].Region < rs[b].Region
	})
	return rs
}

// Plan is a set of property-array regions to madvise(MADV_HUGEPAGE).
type Plan struct {
	Regions []int // ascending region numbers
	// Coverage is the fraction of estimated property accesses the
	// selected regions capture.
	Coverage float64
}

// PlanBudget selects the highest-heat regions that fit within a huge
// page budget of budgetBytes, mirroring what a programmer would do with
// the paper's §5.2 guidance if they could only afford N huge pages.
func (p *Profile) PlanBudget(budgetBytes uint64) Plan {
	n := int(budgetBytes / memsys.HugeSize)
	if n > p.Regions {
		n = p.Regions
	}
	if n <= 0 {
		return Plan{}
	}
	hottest := p.Hottest()[:n]
	var plan Plan
	var captured uint64
	for _, rh := range hottest {
		plan.Regions = append(plan.Regions, rh.Region)
		captured += rh.Heat
	}
	sort.Ints(plan.Regions)
	if p.TotalAccesses > 0 {
		plan.Coverage = float64(captured) / float64(p.TotalAccesses)
	}
	return plan
}

// PlanCoverage selects the fewest hottest regions that capture at least
// `coverage` (0..1] of the estimated accesses — the dual of PlanBudget.
// A coverage that is not positive, NaN included, selects nothing.
func (p *Profile) PlanCoverage(coverage float64) Plan {
	if !(coverage > 0) {
		return Plan{}
	}
	if coverage > 1 {
		coverage = 1
	}
	target := uint64(coverage * float64(p.TotalAccesses))
	var plan Plan
	var captured uint64
	for _, rh := range p.Hottest() {
		if captured >= target && len(plan.Regions) > 0 {
			break
		}
		plan.Regions = append(plan.Regions, rh.Region)
		captured += rh.Heat
	}
	sort.Ints(plan.Regions)
	if p.TotalAccesses > 0 {
		plan.Coverage = float64(captured) / float64(p.TotalAccesses)
	}
	return plan
}

// PrefixCurve returns the cumulative access coverage of region prefixes:
// element i is the coverage of regions [0, i]. A steep curve (after DBG)
// means a small madvise prefix suffices; a flat curve (scattered hubs)
// means prefix advice is wasted without reordering.
func (p *Profile) PrefixCurve() []float64 {
	out := make([]float64, p.Regions)
	var acc uint64
	for i, h := range p.Heat {
		acc += h
		if p.TotalAccesses > 0 {
			out[i] = float64(acc) / float64(p.TotalAccesses)
		}
	}
	return out
}

// Gini returns the Gini coefficient of the per-region heat distribution
// in [0,1]: 0 means uniform heat (selective THP can't beat a prefix),
// values near 1 mean a few regions dominate (selective THP shines).
func (p *Profile) Gini() float64 {
	if p.Regions == 0 || p.TotalAccesses == 0 {
		return 0
	}
	heat := append([]uint64(nil), p.Heat...)
	sort.Slice(heat, func(a, b int) bool { return heat[a] < heat[b] })
	var cum, weighted float64
	for i, h := range heat {
		cum += float64(h)
		weighted += cum
		_ = i
	}
	n := float64(len(heat))
	total := float64(p.TotalAccesses)
	// Gini = (n + 1 - 2 * sum(cumshare)/total) / n
	return (n + 1 - 2*weighted/total) / n
}
