// Package tlb models the address-translation caching hierarchy of an
// x86-64 core: a first-level data TLB with separate arrays per page size
// (as on Intel Haswell), a unified second-level TLB (STLB) shared by 4KB
// and 2MB translations, and the page-walk caches (PML4E/PDPTE/PDE) that
// shorten radix walks on STLB misses.
//
// All structures are set-associative with true-LRU replacement inside
// each set, and all state updates are deterministic.
package tlb

import (
	"fmt"

	"graphmem/internal/check"
	"graphmem/internal/vm"
)

// SetConfig describes one set-associative structure.
type SetConfig struct {
	Entries int
	Ways    int
}

func (c SetConfig) sets() int {
	if c.Entries == 0 {
		return 0
	}
	if c.Ways <= 0 || c.Entries%c.Ways != 0 {
		panic(check.Failf("tlb: %d entries not divisible by %d ways", c.Entries, c.Ways))
	}
	return c.Entries / c.Ways
}

// Config describes a full translation-caching hierarchy.
type Config struct {
	Name  string
	L1D4K SetConfig // L1 DTLB array for 4KB translations
	L1D2M SetConfig // L1 DTLB array for 2MB translations
	STLB  SetConfig // unified L2 TLB (4KB + 2MB)

	// Page-walk caches by level, per Intel's paging-structure caches.
	PWCPDE   SetConfig // caches PD entries (keyed by va>>21)
	PWCPDPTE SetConfig // caches PDPT entries (keyed by va>>30)
	PWCPML4E SetConfig // caches PML4 entries (keyed by va>>39)
}

// Haswell returns the hierarchy of the paper's evaluation machine
// (Table 1: Xeon E5-2667 v3): 64-entry 4-way L1 DTLB for 4KB pages, a
// separate 32-entry 4-way array for 2MB pages, and a 1024-entry 8-way
// unified STLB. Paging-structure cache sizes follow Intel's published
// Haswell parameters.
func Haswell() Config {
	return Config{
		Name:     "haswell",
		L1D4K:    SetConfig{Entries: 64, Ways: 4},
		L1D2M:    SetConfig{Entries: 32, Ways: 4},
		STLB:     SetConfig{Entries: 1024, Ways: 8},
		PWCPDE:   SetConfig{Entries: 32, Ways: 4},
		PWCPDPTE: SetConfig{Entries: 4, Ways: 4},
		PWCPML4E: SetConfig{Entries: 2, Ways: 2},
	}
}

// Scaled divides every entry count of c by div (minimum one way per
// structure), preserving associativity where possible. Scaled TLBs let
// tests and quick benchmarks reproduce capacity effects on small graphs.
func Scaled(c Config, div int) Config {
	sc := func(s SetConfig) SetConfig {
		e := s.Entries / div
		if e < 1 {
			e = 1
		}
		// Round entries down to a power of two so any ways divisor
		// yields a power-of-two set count.
		for e&(e-1) != 0 {
			e &= e - 1
		}
		w := s.Ways
		if w > e {
			w = e
		}
		// Pick the largest associativity that leaves a power-of-two
		// set count; w == e (fully associative) always qualifies.
		for w > 1 {
			if e%w == 0 && (e/w)&(e/w-1) == 0 {
				break
			}
			w--
		}
		return SetConfig{Entries: e, Ways: w}
	}
	return Config{
		Name:     fmt.Sprintf("%s/%d", c.Name, div),
		L1D4K:    sc(c.L1D4K),
		L1D2M:    sc(c.L1D2M),
		STLB:     sc(c.STLB),
		PWCPDE:   sc(c.PWCPDE),
		PWCPDPTE: sc(c.PWCPDPTE),
		PWCPML4E: sc(c.PWCPML4E),
	}
}

// way is one entry slot of a set: the key's tag (key+1, so 0 means
// invalid) next to its LRU stamp. A set's ways are contiguous, so one
// probe reads a single block of tags and stamps.
type way struct {
	tag   uint64
	stamp uint64
}

// setAssoc is a generic set-associative tag array with per-set LRU.
type setAssoc struct {
	setsMask uint64
	ways     int
	block    []way // sets × ways; set s holds block[s*ways : (s+1)*ways]
	// clock advances once per hit or fill and by n per repeat hit; at
	// 64 bits it cannot wrap within any run, so a larger stamp is always
	// the more recent touch.
	clock uint64
}

func newSetAssoc(c SetConfig) *setAssoc {
	sets := c.sets()
	if sets == 0 {
		return &setAssoc{}
	}
	if sets&(sets-1) != 0 {
		panic(check.Failf("tlb: set count %d not a power of two", sets))
	}
	return &setAssoc{
		setsMask: uint64(sets - 1),
		ways:     c.Ways,
		block:    make([]way, sets*c.Ways),
	}
}

// probe returns key's set and the way holding key in it, or -1. The
// scan has no early exit: its select compiles to a conditional move, so
// a hit in a different way on every probe costs no branch mispredict.
func (s *setAssoc) probe(key uint64) ([]way, int) {
	base := int(key&s.setsMask) * s.ways
	set := s.block[base : base+s.ways]
	hit := -1
	for w := range set {
		if set[w].tag == key+1 {
			hit = w
		}
	}
	return set, hit
}

// lookup probes for key; on hit it refreshes LRU and returns true.
func (s *setAssoc) lookup(key uint64) bool {
	if s.ways == 0 {
		return false
	}
	set, hit := s.probe(key)
	if hit < 0 {
		return false
	}
	s.clock++
	set[hit].stamp = s.clock
	return true
}

// repeatHit refreshes key's LRU state as n consecutive hitting lookups
// would: each hit advances the set's clock by one and leaves the entry's
// stamp at the new clock, so n hits in a row net to clock += n with the
// stamp landing on the final value and no other way touched. Returns
// false when the entry is absent (the caller's residency guarantee was
// broken).
func (s *setAssoc) repeatHit(key, n uint64) bool {
	if s.ways == 0 {
		return false
	}
	set, hit := s.probe(key)
	if hit < 0 {
		return false
	}
	s.clock += n
	set[hit].stamp = s.clock
	return true
}

// insert fills key, evicting the LRU way of its set if necessary: a
// present key is only refreshed; otherwise the victim is the last
// invalid way, else the way with the lowest stamp, the earliest index
// breaking ties. One pass finds the hit, the last invalid way and the
// lowest stamp together.
func (s *setAssoc) insert(key uint64) {
	if s.ways == 0 {
		return
	}
	tag := key + 1
	base := int(key&s.setsMask) * s.ways
	set := s.block[base : base+s.ways]
	hit, empty, victim, oldest := -1, -1, 0, set[0].stamp
	for w := range set {
		t, st := set[w].tag, set[w].stamp
		if t == tag {
			hit = w
		}
		if t == 0 {
			empty = w
		}
		if st < oldest {
			victim, oldest = w, st
		}
	}
	s.clock++
	switch {
	case hit >= 0:
		set[hit].stamp = s.clock
		return
	case empty >= 0:
		victim = empty
	}
	set[victim] = way{tag: tag, stamp: s.clock}
}

// invalidate removes key if present.
func (s *setAssoc) invalidate(key uint64) {
	if s.ways == 0 {
		return
	}
	if set, hit := s.probe(key); hit >= 0 {
		set[hit] = way{}
	}
}

// reset clears all entries.
func (s *setAssoc) reset() {
	clear(s.block)
	s.clock = 0
}

// Stats holds the hierarchy's counters. DTLB terminology follows the
// paper: a "DTLB miss" is a first-level miss; those either hit the STLB
// or walk.
type Stats struct {
	Lookups    uint64
	L1Misses   uint64
	STLBMisses uint64 // == page walks
	WalkCycles uint64
}

// Add returns the field-wise sum s + o (the sharded machine engine's
// per-shard merge).
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Lookups:    s.Lookups + o.Lookups,
		L1Misses:   s.L1Misses + o.L1Misses,
		STLBMisses: s.STLBMisses + o.STLBMisses,
		WalkCycles: s.WalkCycles + o.WalkCycles,
	}
}

// DTLBMissRate is L1 misses ÷ lookups.
func (s Stats) DTLBMissRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.L1Misses) / float64(s.Lookups)
}

// STLBMissRate is walks ÷ lookups (the paper's "STLB miss" striped bars
// are relative to all TLB accesses).
func (s Stats) STLBMissRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.STLBMisses) / float64(s.Lookups)
}

// Hierarchy is a live TLB + PWC instance.
type Hierarchy struct {
	cfg Config

	l14k *setAssoc
	l12m *setAssoc
	stlb *setAssoc

	pwcPDE   *setAssoc
	pwcPDPTE *setAssoc
	pwcPML4E *setAssoc

	stats Stats
}

// New builds a hierarchy from a config.
func New(cfg Config) *Hierarchy {
	return &Hierarchy{
		cfg:      cfg,
		l14k:     newSetAssoc(cfg.L1D4K),
		l12m:     newSetAssoc(cfg.L1D2M),
		stlb:     newSetAssoc(cfg.STLB),
		pwcPDE:   newSetAssoc(cfg.PWCPDE),
		pwcPDPTE: newSetAssoc(cfg.PWCPDPTE),
		pwcPML4E: newSetAssoc(cfg.PWCPML4E),
	}
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Stats returns a copy of the counters.
func (h *Hierarchy) Stats() Stats { return h.stats }

// ResetStats zeroes the counters without touching cached state, so a
// measurement phase can exclude warm-up.
func (h *Hierarchy) ResetStats() { h.stats = Stats{} }

// Reset clears all cached translations and counters.
func (h *Hierarchy) Reset() {
	h.l14k.reset()
	h.l12m.reset()
	h.stlb.reset()
	h.pwcPDE.reset()
	h.pwcPDPTE.reset()
	h.pwcPML4E.reset()
	h.stats = Stats{}
}

// stlbKey disambiguates page sizes sharing the unified STLB.
func stlbKey(va uint64, size vm.PageSizeClass) uint64 {
	if size == vm.Page2M {
		return (va>>21)<<1 | 1
	}
	return (va >> 12) << 1
}

// Result describes what one translation lookup did.
type Result struct {
	L1Hit   bool
	STLBHit bool
	Walked  bool
}

// Lookup simulates a data-side translation of va whose true mapping size
// is size (known only after the walk in hardware, but needed up front to
// probe the right arrays the way the physical tag match does). It
// returns what happened; the caller charges costs and, on a walk,
// invokes WalkCost.
func (h *Hierarchy) Lookup(va uint64, size vm.PageSizeClass) Result {
	h.stats.Lookups++
	switch size {
	case vm.Page4K:
		if h.l14k.lookup(va >> 12) {
			return Result{L1Hit: true}
		}
	case vm.Page2M:
		if h.l12m.lookup(va >> 21) {
			return Result{L1Hit: true}
		}
	}
	h.stats.L1Misses++
	if h.stlb.lookup(stlbKey(va, size)) {
		h.fillL1(va, size)
		return Result{STLBHit: true}
	}
	h.stats.STLBMisses++
	return Result{Walked: true}
}

// L1Holds reports whether the L1 array for the given page size has any
// capacity. A zero-way array can never retain a translation, so bulk
// batching that relies on residency after a fill must not engage.
func (h *Hierarchy) L1Holds(size vm.PageSizeClass) bool {
	if size == vm.Page2M {
		return h.l12m.ways != 0
	}
	return h.l14k.ways != 0
}

// LookupRepeatHit charges n translation lookups of va that are known to
// hit the L1 array: an earlier Lookup in the same access run installed
// or refreshed the entry and nothing has invalidated it since. Counters
// and the array's LRU clock advance exactly as n Lookup calls returning
// L1Hit would. It panics when the entry is absent, because that means a
// bulk caller's same-page residency guarantee does not hold.
func (h *Hierarchy) LookupRepeatHit(va uint64, size vm.PageSizeClass, n uint64) {
	h.stats.Lookups += n
	var ok bool
	if size == vm.Page2M {
		ok = h.l12m.repeatHit(va>>21, n)
	} else {
		ok = h.l14k.repeatHit(va>>12, n)
	}
	if !ok {
		panic(check.Failf("tlb: bulk repeat hit on absent translation va=%#x size=%v", va, size))
	}
}

// fillL1 installs the translation into the size-appropriate L1 array.
func (h *Hierarchy) fillL1(va uint64, size vm.PageSizeClass) {
	if size == vm.Page2M {
		h.l12m.insert(va >> 21)
	} else {
		h.l14k.insert(va >> 12)
	}
}

// Fill installs a completed walk's translation into the STLB and L1.
func (h *Hierarchy) Fill(va uint64, size vm.PageSizeClass) {
	h.stlb.insert(stlbKey(va, size))
	h.fillL1(va, size)
}

// WalkCost simulates the radix walk for va at the given mapping size and
// returns (memoryLevels, cachedLevels): how many paging-structure
// accesses went to the memory hierarchy versus were satisfied by the
// paging-structure caches. It also updates the PWCs.
func (h *Hierarchy) WalkCost(va uint64, size vm.PageSizeClass) (memLevels, cachedLevels int) {
	pde := va >> 21
	pdpte := va >> 30
	pml4e := va >> 39

	levels := 4
	if size == vm.Page2M {
		levels = 3 // walk terminates at the PDE
	}

	// Find the deepest cached level; everything above it is "cached",
	// everything below (including the terminal entry) goes to memory.
	switch {
	case levels == 4 && h.pwcPDE.lookup(pde):
		memLevels, cachedLevels = 1, 3 // only the PTE fetch
	case h.pwcPDPTE.lookup(pdpte):
		memLevels, cachedLevels = levels-2, 2
	case h.pwcPML4E.lookup(pml4e):
		memLevels, cachedLevels = levels-1, 1
	default:
		memLevels, cachedLevels = levels, 0
	}

	// The walk populates the paging-structure caches on its way down.
	// The level that hit is already refreshed by its lookup: inserting
	// it again would only advance its array's clock once more.
	if cachedLevels != 1 {
		h.pwcPML4E.insert(pml4e)
	}
	if cachedLevels != 2 {
		h.pwcPDPTE.insert(pdpte)
	}
	if levels == 4 && cachedLevels != 3 {
		h.pwcPDE.insert(pde)
	}
	return memLevels, cachedLevels
}

// AddWalkCycles accumulates walk cost into the stats (charged by the
// machine layer which owns the cost model).
func (h *Hierarchy) AddWalkCycles(c uint64) { h.stats.WalkCycles += c }

// Invalidate performs a TLB shootdown of the translation for va at the
// given size (and conservatively drops the matching PWC entries).
func (h *Hierarchy) Invalidate(va uint64, size vm.PageSizeClass) {
	if size == vm.Page2M {
		h.l12m.invalidate(va >> 21)
	} else {
		h.l14k.invalidate(va >> 12)
	}
	h.stlb.invalidate(stlbKey(va, size))
	h.pwcPDE.invalidate(va >> 21)
}
