package machine

import (
	"graphmem/internal/cache"
	"graphmem/internal/tlb"
	"graphmem/internal/vm"
)

// This file is the accounting and observation layer of the access
// engine: phase bookkeeping, the two built-in zero-alloc accounting
// hooks (region heat, per-array attribution), and the tracer hook that
// trace capture attaches.

// ArrayStats attributes memory behaviour to one registered array (VMA),
// reproducing the paper's per-data-structure analysis (Fig. 4/5).
type ArrayStats struct {
	Name     string
	Accesses uint64
	L1Misses uint64
	Walks    uint64
}

// PhaseStats aggregates behaviour over one named phase of execution
// (the paper reports initialization and kernel time separately).
type PhaseStats struct {
	Name   string
	Cycles uint64

	Accesses uint64

	DataCycles        uint64 // time in the data cache/DRAM hierarchy
	TranslationCycles uint64 // STLB hits + page walks
	FaultCycles       uint64 // kernel fault handling on the critical path

	TLB   tlb.Stats
	Cache cache.Stats
}

// Add returns the field-wise sum p + o, keeping p's Name. The sharded
// machine engine merges per-shard kernel phases with it; note the
// merged phase's Cycles is then set to the barrier makespan by the
// caller, not this sum (core, DESIGN.md §5c).
func (p PhaseStats) Add(o PhaseStats) PhaseStats {
	return PhaseStats{
		Name:              p.Name,
		Cycles:            p.Cycles + o.Cycles,
		Accesses:          p.Accesses + o.Accesses,
		DataCycles:        p.DataCycles + o.DataCycles,
		TranslationCycles: p.TranslationCycles + o.TranslationCycles,
		FaultCycles:       p.FaultCycles + o.FaultCycles,
		TLB:               p.TLB.Add(o.TLB),
		Cache:             p.Cache.Add(o.Cache),
	}
}

// TranslationShare is the fraction of phase cycles spent translating
// (the paper's Fig. 2 metric, extended with fault time excluded).
func (p PhaseStats) TranslationShare() float64 {
	if p.Cycles == 0 {
		return 0
	}
	return float64(p.TranslationCycles) / float64(p.Cycles)
}

// RegisterArray tags a VMA for per-array attribution and returns its
// stats index.
func (m *Machine) RegisterArray(v *vm.VMA) int {
	v.StatsTag = len(m.arrays)
	m.arrays = append(m.arrays, ArrayStats{Name: v.Name})
	return v.StatsTag
}

// ArrayStats returns a copy of the per-array counters.
func (m *Machine) ArrayStats() []ArrayStats {
	out := make([]ArrayStats, len(m.arrays))
	copy(out, m.arrays)
	return out
}

// BeginPhase closes the current phase and starts a new one.
func (m *Machine) BeginPhase(name string) {
	m.closePhase()
	m.phase = PhaseStats{Name: name}
	m.tlbAtPhase = m.TLB.Stats()
	m.cchAtPhase = m.Cache.Stats()
}

func (m *Machine) closePhase() {
	cur := m.TLB.Stats()
	m.phase.TLB = tlb.Stats{
		Lookups:    cur.Lookups - m.tlbAtPhase.Lookups,
		L1Misses:   cur.L1Misses - m.tlbAtPhase.L1Misses,
		STLBMisses: cur.STLBMisses - m.tlbAtPhase.STLBMisses,
		WalkCycles: cur.WalkCycles - m.tlbAtPhase.WalkCycles,
	}
	cch := m.Cache.Stats()
	m.phase.Cache = cache.Stats{
		Accesses: cch.Accesses - m.cchAtPhase.Accesses,
		L1Misses: cch.L1Misses - m.cchAtPhase.L1Misses,
		LLCMiss:  cch.LLCMiss - m.cchAtPhase.LLCMiss,
	}
	m.done = append(m.done, m.phase)
}

// FinishPhases closes the current phase and returns all completed
// phases in order.
func (m *Machine) FinishPhases() []PhaseStats {
	m.closePhase()
	m.phase = PhaseStats{Name: "after"}
	m.tlbAtPhase = m.TLB.Stats()
	m.cchAtPhase = m.Cache.Stats()
	return m.done
}

// Phase returns the named completed phase, or false.
func (m *Machine) Phase(name string) (PhaseStats, bool) {
	for _, p := range m.done {
		if p.Name == name {
			return p, true
		}
	}
	return PhaseStats{}, false
}

// --- built-in accounting hooks ----------------------------------------
//
// Heat and per-array attribution run on every access and feed simulated
// policy (heat-guided promotion) and the paper's per-structure tables,
// so they are part of the engine's zero-alloc contract: both are plain
// field increments, statically compiled into Access.

// accountHeat records region heat for heat-guided promotion policies.
// The accessed address just translated through a live mapping, so the
// region's chunk is guaranteed materialized and AddHeat is a plain
// array increment — no allocation, no nil check on the fast path.
func (m *Machine) accountHeat(va uint64, v *vm.VMA) {
	v.AddHeat(int((va-v.Base)>>21), 1)
}

// accountArray attributes the access to its registered array, if any.
func (m *Machine) accountArray(v *vm.VMA, res tlb.Result) {
	if tag := v.StatsTag; tag >= 0 {
		a := &m.arrays[tag]
		a.Accesses++
		if !res.L1Hit {
			a.L1Misses++
		}
		if res.Walked {
			a.Walks++
		}
	}
}

// --- tracer -----------------------------------------------------------

// Tracer receives every access (virtual address and the VMA's StatsTag)
// — the hook trace capture uses.
type Tracer interface{ Trace(va uint64, tag uint8) }

// SetTracer installs t as the machine's tracer (replacing any previous
// one); nil detaches. While a tracer is attached, the bulk and gather
// engines dispatch per access, so the trace sees every access in order.
func (m *Machine) SetTracer(t Tracer) { m.tracer = t }

// trace hands the access to the tracer, the VMA's StatsTag clamped to a
// byte (0xFF for untagged or out-of-range tags).
func (m *Machine) trace(va uint64, v *vm.VMA) {
	tag := uint8(0xFF)
	if v.StatsTag >= 0 && v.StatsTag < 0xFF {
		tag = uint8(v.StatsTag)
	}
	m.tracer.Trace(va, tag)
}
