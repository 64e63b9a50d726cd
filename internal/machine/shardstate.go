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
// cache hierarchies, phase and per-array accounting) and the shard's
// functional translation cache, as opposed to per-machine
// infrastructure (memory, address space, kernel) and cross-shard
// configuration (cost model, hatches).
type shardState struct {
	TLB   *tlb.Hierarchy
	Cache *cache.Hierarchy

	// Post-TLB translation cache: the primary entry is the page
	// installed by the last translate/fault, keyed by
	// [trBase, trBase+trSpan), and is the only entry the fast path
	// compares against. A hit skips the radix walk in Space.Translate
	// entirely; trSpan == 0 means empty (the unsigned compare
	// va-trBase >= trSpan then always misses).
	//
	// trTab holds the direct-mapped tables behind the primary entry,
	// one per page size, indexed by virtual page number and probed only
	// on a primary miss (access_slow.go). Every refill fills the slot of
	// its page, so an irregular gather cycling over a few thousand pages
	// resolves them without a radix walk. trLive records that some slot
	// may be full since the tables were last emptied; shootdown()
	// empties them and the primary entry whenever any mapping changes.
	// The cache is functional-only — Translate charges no cycles — so it
	// changes no modeled cost, only simulator speed (MODEL.md §1), and it
	// is not part of the state walk: a fork or a load starts with no
	// tables, and its first refill allocates them.
	tr     vm.Translation
	trBase uint64
	trSpan uint64
	trTab  *trTables
	trLive bool

	// Phase and per-array accounting (stats.go).
	phase      PhaseStats
	tlbAtPhase tlb.Stats
	cchAtPhase cache.Stats
	done       []PhaseStats

	arrays []ArrayStats
}

// flushTranslations empties the translation cache: the primary entry,
// and both tables unless no slot has been filled since they were last
// emptied. Reclaim and compaction shoot pages down in bursts with no
// access between them: in a bench-scale run of the paper's experiments
// 121 of 8,903 shootdowns find a filled slot.
func (s *shardState) flushTranslations() {
	s.tr, s.trBase, s.trSpan = vm.Translation{}, 0, 0
	if s.trLive {
		*s.trTab = trTables{}
		s.trLive = false
	}
}
