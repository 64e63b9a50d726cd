// Package machine assembles the full simulated system — physical memory,
// an address space, the kernel's THP policy, the TLB hierarchy, and the
// data caches — behind a single Access entry point that charges cycle
// costs the way the paper's hardware does: data latency plus translation
// latency plus any fault-handling work on the critical path.
//
// Simulated time is a cycle counter; "runtime" comparisons across
// configurations are ratios of these counters over identical access
// streams.
//
// The access engine is staged across six files (DESIGN.md §4):
//
//   - access.go        the branch-lean fast path: one translation-cache
//     compare, TLB probe, data-cache probe, and inlined allocation-free
//     accounting. Tagged //simlint:fastpath (rule SL007).
//   - access_run.go    the bulk path: AccessRun coalesces sequential
//     streams into page segments and line batches with aggregated,
//     scalar-identical accounting. Tagged //simlint:fastpath.
//   - access_gather.go the gather path: AccessGather batches irregular
//     (data-dependent) address vectors, exploiting same-page and
//     same-line runs inside a batch. Tagged //simlint:fastpath.
//   - access_slow.go   everything rare: page faults, STLB probes, page
//     walks, simulated-PTE fetches, TLB fills, scalar degradation loops.
//   - events.go       the event layer: background actors (khugepaged,
//     tickers) register cycle deadlines; the fast path pays a single
//     compare per access and dispatches only when a deadline is due.
//   - stats.go        phases, per-array attribution, and the tracer
//     hook.
//
// This file holds construction and the cross-cutting small pieces.
package machine

import (
	"graphmem/internal/cache"
	"graphmem/internal/cost"
	"graphmem/internal/memsys"
	"graphmem/internal/oskernel"
	"graphmem/internal/tlb"
	"graphmem/internal/vm"
)

// Config bundles everything needed to build a Machine.
type Config struct {
	MemoryBytes uint64
	TLB         tlb.Config
	Cache       cache.Config
	Cost        cost.Model
	Kernel      oskernel.Config

	// SimulatePageTables switches page walks from the constant
	// per-level cost model to real fetches: paging structures live in
	// simulated frames (unmovable kernel memory) and walk entries are
	// read through the data cache hierarchy, so hot page-table entries
	// cost an L1 hit and cold ones cost DRAM.
	SimulatePageTables bool
}

// DefaultConfig returns a machine mirroring the paper's evaluation node
// (Table 1), with memory scaled to memBytes.
func DefaultConfig(memBytes uint64) Config {
	return Config{
		MemoryBytes: memBytes,
		TLB:         tlb.Haswell(),
		Cache:       cache.Haswell(),
		Cost:        cost.Default(),
		Kernel:      oskernel.DefaultConfig(),
	}
}

// Slots of the translation cache's page-indexed tables, one table per
// page size (powers of two). 4096 4 KB slots cover 16 MB of distinct
// pages and 64 2 MB slots 128 MB: the hot property pages a power-law
// gather revisits stay resolvable without a radix walk.
const (
	trSlots4K = 4096
	trSlots2M = 64
)

// hugeShift is log2 of the 2 MB page size.
const hugeShift = memsys.PageShift + memsys.HugeOrder

// trSlot is one slot of a translation-cache table: the translation of
// the page whose number (va >> the page shift) is key-1. key == 0 means
// empty.
type trSlot struct {
	key uint64
	tr  vm.Translation
}

// Machine is one simulated host running one workload.
//
// The fields a sharded run must keep private per shard — the TLB and
// cache hierarchies, the translation cache, and all phase/array
// accounting — live in the embedded shardState vector (shardstate.go);
// field promotion keeps every access site unchanged. The remaining
// fields are either per-machine infrastructure that forks wholesale
// (memory, address space, kernel) or configuration identical across
// shards.
type Machine struct {
	Mem    *memsys.Memory
	Space  *vm.AddressSpace
	Kernel *oskernel.Kernel
	Model  cost.Model

	cycles uint64
	simPT  bool

	// noBulk forces AccessRun onto the per-access path (access_run.go).
	// Bulk charging is cycle-identical by construction, so this exists
	// only to prove it: the CI gate diffs a campaign run both ways. Set
	// by SetBulk (core opens it via the GRAPHMEM_NO_BULK hatch).
	noBulk bool

	// noGather forces AccessGather onto the per-access path
	// (access_gather.go). Like noBulk it exists to prove equivalence:
	// set by SetGather (core opens it via the GRAPHMEM_NO_GATHER hatch).
	noGather bool

	// Event layer state (events.go): the earliest cycle at which any
	// background actor is due. The fast path compares cycles against
	// this once per access.
	nextEvent uint64
	tickers   []ticker

	// tracer receives every access while attached (stats.go). The fast
	// path tests it for nil only.
	tracer Tracer

	shardState
}

// New builds a machine.
func New(cfg Config) *Machine {
	mem := memsys.New(cfg.MemoryBytes)
	space := vm.NewAddressSpace(mem)
	space.SimPageTables = cfg.SimulatePageTables
	m := &Machine{
		simPT:  cfg.SimulatePageTables,
		Mem:    mem,
		Space:  space,
		Kernel: oskernel.New(cfg.Kernel, space, cfg.Cost),
		Model:  cfg.Cost,
		shardState: shardState{
			TLB:   tlb.New(cfg.TLB),
			Cache: cache.New(cfg.Cache),
		},
	}
	space.Shootdown = m.shootdown
	m.phase = PhaseStats{Name: "boot"}
	m.armEvents()
	return m
}

// shootdown is the address space's mapping-change callback: it empties
// the machine's translation cache — the primary entry and both tables,
// conservatively, whatever the changed range was — and forwards the
// invalidation to the TLB hierarchy. Emptying everything keeps the cache
// trivially coherent: no entry can outlive any mapping change.
func (m *Machine) shootdown(va uint64, size vm.PageSizeClass) {
	m.flushTranslations()
	m.TLB.Invalidate(va, size)
}

// Cycles returns total simulated time so far.
func (m *Machine) Cycles() uint64 { return m.cycles }

// AddCycles charges pure compute time (no memory access) to the current
// phase, used for modelling non-memory work such as preprocessing CPU
// time. It does not dispatch background events: only Access drives them,
// matching the pre-event-layer engine.
func (m *Machine) AddCycles(c uint64) {
	m.cycles += c
	m.phase.Cycles += c
}

// SetBulk enables or disables the bulk access engine (AccessRun's
// coalesced path). Disabling is observationally invisible — bulk
// charging is cycle-identical to per-access dispatch — and exists for
// the equivalence gate in CI and for differential tests.
func (m *Machine) SetBulk(enabled bool) { m.noBulk = !enabled }

// SetGather enables or disables the gather access engine (AccessGather's
// batched path). Like SetBulk, disabling is observationally invisible —
// gather charging is cycle-identical to per-access dispatch — and exists
// for the equivalence gate in CI and for differential tests.
func (m *Machine) SetGather(enabled bool) { m.noGather = !enabled }

// Touch faults in (and accesses) every page of the byte range
// [va, va+bytes), in ascending order — the simulator's equivalent of an
// initialization loop writing an array sequentially. It charges one
// access per cache line to approximate streaming initialization.
func (m *Machine) Touch(va, bytes uint64) {
	if bytes == 0 {
		return
	}
	lines := (bytes-1)>>cache.LineShift + 1
	m.AccessRun(va, int(lines), 1<<cache.LineShift)
}
