package machine

import (
	"graphmem/internal/cache"
	"graphmem/internal/tlb"
	"graphmem/internal/vm"
)

// shardState is the per-shard slice of the machine state vector: every
// field that must stay private to one shard when a sharded run drives
// several machines over disjoint windows of one logical address space
// (DESIGN.md §5c). It is embedded anonymously in Machine so the access
// engine's fast paths read the fields through promotion, exactly as
// before the split; its state walk copies it on fork. Region heat is
// per-shard too, but lives in the VMAs (per-chunk heat counters) and
// forks with the address space rather than with this struct.
//
// The grouping is the refactor's contract, not a runtime mechanism: a
// shard is realized as a whole forked Machine, and this struct names
// which of its fields carry the shard-local simulation state (TLB and
// cache hierarchies, the translation cache, phase and per-array
// accounting) as opposed to per-machine infrastructure (memory,
// address space, kernel) and cross-shard configuration (cost model,
// hatches).
type shardState struct {
	TLB   *tlb.Hierarchy
	Cache *cache.Hierarchy

	// Post-TLB translation cache: the primary entry is the page
	// installed by the last translate/fault, keyed by
	// [trBase, trBase+trSpan), and is the only entry the fast path
	// compares against. A hit skips the radix walk in Space.Translate
	// entirely; shootdown() clears every entry whenever any mapping
	// changes. trSpan == 0 means empty (the unsigned compare
	// va-trBase >= trSpan then always misses).
	//
	// trWide is a small VA-tagged victim array behind the primary
	// entry, probed only on a primary miss (access_slow.go). It keeps
	// recently used pages resolvable without a radix walk when an
	// irregular gather alternates between a handful of pages. The cache
	// is functional-only — Translate charges no cycles — so widening it
	// changes no modeled cost, only simulator speed (MODEL.md §1).
	tr       vm.Translation
	trBase   uint64
	trSpan   uint64
	trWide   [trCacheWays]trEntry
	trVictim int

	// Phase and per-array accounting (stats.go).
	phase      PhaseStats
	tlbAtPhase tlb.Stats
	cchAtPhase cache.Stats
	done       []PhaseStats

	arrays []ArrayStats
}
