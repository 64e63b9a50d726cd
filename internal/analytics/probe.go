package analytics

import (
	"graphmem/internal/check"
	"graphmem/internal/graph"
	"graphmem/internal/vm"
)

// This file implements the bounded rollout probe behind the ext-rollout
// experiment: a short, deterministic burst of the translation-hostile
// traffic a graph kernel produces — offset reads, neighbor-run streams,
// and irregular property gathers — swept across the whole graph, used
// to score candidate page-size policies on forks of one warmed machine
// (core.Checkpoint / core.ForkPair) without paying for a full kernel
// per candidate.

// ProbeResult summarizes one rollout probe: the simulated cost of a
// fixed sweep-gather access burst under whatever policy the machine was
// configured with at probe time. All counters are deltas over the probe
// except HugeBytes, which is the image's total huge-mapped bytes when
// the probe ended.
type ProbeResult struct {
	Accesses   uint64 // property-gather accesses issued (== the budget, edge-permitting)
	Cycles     uint64 // total simulated cycles consumed by the probe
	Walks      uint64 // STLB misses → page table walks during the probe
	WalkCycles uint64 // cycles spent walking page tables
	Promotions uint64 // khugepaged promotions that landed during the probe
	HugeBytes  uint64 // image bytes huge-mapped at probe end (all arrays)
}

// CyclesPerAccess is the probe's scalar figure of merit.
func (r ProbeResult) CyclesPerAccess() float64 {
	if r.Accesses == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Accesses)
}

// probeNeighborCap bounds the neighbor run consumed per vertex visit,
// so a single mega-hub cannot swallow the whole budget and the sweep
// keeps touching pages across the full footprint.
const probeNeighborCap = 64

// RunProbe issues a deterministic burst of budget property-gather
// accesses, visiting vertices in a full-range stride permutation. Per
// visit it replays the kernel access shape exactly: two CSR offset
// reads, a sequential neighbor-run stream (capped at probeNeighborCap),
// then those neighbors' property entries as a gather batch. The
// stride keeps the touched footprint as wide as the kernel's — beyond
// TLB reach — so the probe pays realistic translation costs, and
// background kernel activity (khugepaged scans and promotions) keeps
// running on the probe's cycle clock, which is exactly what lets probes
// discriminate between THP policies applied after a fork.
//
// The probe runs inside a "probe" machine phase. It is read-only on the
// algorithm state (no worklists, no property mutation bookkeeping), so
// it can run on any initialized image, including forks, any number of
// times.
func (img *Image) RunProbe(budget int) ProbeResult {
	if !img.initialized {
		panic(check.Failf("analytics: RunProbe before Init"))
	}
	s := newStream(img.M, streamBlockWords, streamBlocks)
	defer s.stop()
	return img.probe(s, budget)
}

// probe runs the probe in the "probe" phase, streaming its accesses to
// s, closes s, and reports the machine's deltas over the probe.
func (img *Image) probe(s *stream, budget int) ProbeResult {
	g := img.G
	m := img.M
	stride := probeStride(g.N)

	cycles0 := m.Cycles()
	tlb0 := m.TLB.Stats()
	os0 := m.Kernel.Stats()

	m.BeginPhase("probe")
	s.dst.StartCacheStage()
	var accesses uint64
	rem := budget
	v := uint64(0)
	for rem > 0 {
		for i := 0; i < g.N && rem > 0; i++ {
			v = (v + stride) % uint64(g.N)
			s.run(img.vertexAddr(uint32(v)), 2, graph.VertexEntryBytes)
			lo, hi := g.Offsets[v], g.Offsets[v+1]
			n := int(hi - lo)
			if n > probeNeighborCap {
				n = probeNeighborCap
			}
			if n > rem {
				n = rem
			}
			if n == 0 {
				continue
			}
			s.run(img.edgeAddr(lo), n, graph.EdgeEntryBytes)
			for e := lo; e < lo+uint64(n); e++ {
				s.access(img.propAddr(g.Neighbors[e]))
			}
			accesses += uint64(n)
			rem -= n
		}
	}
	s.close()

	tlb1 := m.TLB.Stats()
	os1 := m.Kernel.Stats()
	var huge uint64
	addHuge := func(v *vm.VMA) {
		if v != nil {
			_, h := v.MappedBytes()
			huge += h
		}
	}
	addHuge(img.Vertex)
	addHuge(img.Edge)
	addHuge(img.Values)
	addHuge(img.Prop)
	addHuge(img.Work)
	return ProbeResult{
		Accesses:   accesses,
		Cycles:     m.Cycles() - cycles0,
		Walks:      tlb1.STLBMisses - tlb0.STLBMisses,
		WalkCycles: tlb1.WalkCycles - tlb0.WalkCycles,
		Promotions: os1.Promotions - os0.Promotions,
		HugeBytes:  huge,
	}
}

// probeStride picks a deterministic stride coprime to n near the golden
// ratio of n, so successive visits are spread across the whole vertex
// range instead of walking it sequentially (which would let bulk
// translation reuse hide all TLB pressure).
func probeStride(n int) uint64 {
	if n <= 2 {
		return 1
	}
	s := uint64(float64(n)*0.618)>>1<<1 + 1 // odd, ≈0.618n
	for gcd(s, uint64(n)) != 1 {
		s += 2
	}
	return s
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
