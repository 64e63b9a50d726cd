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
// The access engine is staged across seven files (DESIGN.md §4):
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
//     walks, simulated-PTE fetches, TLB fills.
//   - events.go       the event layer: background actors (khugepaged,
//     tickers) register cycle deadlines; the fast path pays a single
//     compare per access and dispatches only when a deadline is due.
//   - stats.go        phases and per-array attribution.
//   - cachestage.go   the cache stage: while a kernel streams, the data
//     caches run on a goroutine of their own, one step behind the
//     probe sites, and event deadlines read a clock bound (§4g).
//
// This file holds construction and the cross-cutting small pieces.
package machine

import (
	"graphmem/internal/cache"
	"graphmem/internal/check"
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

// trTables are the translation cache's page-indexed tables, one per
// page size.
type trTables struct {
	t4K [trSlots4K]trSlot
	t2M [trSlots2M]trSlot
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

	// Event layer state (events.go): the earliest cycle at which any
	// background actor is due. The fast path compares cycles against
	// this once per access.
	nextEvent uint64
	tickers   []ticker

	// stage is the open cache stage (cachestage.go), or nil; handoff is
	// stage while the probe sites hand their probes to it, and nil
	// while they probe inline. The fast path tests handoff for nil only.
	stage      *cacheStage
	handoff    *cacheStage
	stageStats CacheStageStats

	shardState
}

// freeHit is why a cost model that charges nothing for an L1 hit is
// refused: the bulk and gather engines split a batch at an event
// deadline by dividing by that cost.
const freeHit = "cost model charges 0 cycles for an L1 hit (L1DHit+Compute); the engines divide by it"

// New builds a machine. It panics with a check.Failure when cfg.Cost
// charges nothing for an L1 hit.
func New(cfg Config) *Machine {
	check.Assertf(cfg.Cost.L1DHit+cfg.Cost.Compute > 0, "machine: %s", freeHit)
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
