package tlb

import (
	"testing"
	"testing/quick"

	"graphmem/internal/vm"
)

func TestHaswellGeometry(t *testing.T) {
	c := Haswell()
	if c.L1D4K.Entries != 64 || c.L1D2M.Entries != 32 || c.STLB.Entries != 1024 {
		t.Fatalf("unexpected Haswell geometry: %+v", c)
	}
	New(c) // must not panic
}

func TestScaledKeepsStructure(t *testing.T) {
	for _, div := range []int{1, 2, 4, 8, 16, 32, 3, 7, 100} {
		c := Scaled(Haswell(), div)
		New(c) // set counts must stay powers of two
		if c.L1D4K.Entries < 1 || c.STLB.Entries < 1 {
			t.Fatalf("div %d produced empty structure: %+v", div, c)
		}
	}
}

func TestLookupMissThenHit(t *testing.T) {
	h := New(Haswell())
	va := uint64(0x2000_0000)
	r := h.Lookup(va, vm.Page4K)
	if !r.Walked {
		t.Fatalf("first lookup = %+v, want walk", r)
	}
	h.Fill(va, vm.Page4K)
	r = h.Lookup(va+100, vm.Page4K) // same page
	if !r.L1Hit {
		t.Fatalf("post-fill lookup = %+v, want L1 hit", r)
	}
	s := h.Stats()
	if s.Lookups != 2 || s.L1Misses != 1 || s.STLBMisses != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestSizedArraysAreSeparate(t *testing.T) {
	h := New(Haswell())
	va := uint64(0x4000_0000) // 1GB: aligned for both page sizes
	h.Lookup(va, vm.Page4K)
	h.Fill(va, vm.Page4K)
	// The same address as a 2MB translation must not hit the 4K entry.
	r := h.Lookup(va, vm.Page2M)
	if r.L1Hit {
		t.Fatal("2M lookup hit the 4K entry")
	}
}

func TestL1Capacity4K(t *testing.T) {
	h := New(Haswell())
	// Fill far beyond L1 capacity with distinct pages.
	n := 64 * 4
	for i := 0; i < n; i++ {
		va := uint64(i) << 12
		h.Lookup(va, vm.Page4K)
		h.Fill(va, vm.Page4K)
	}
	h.ResetStats()
	// Re-touch: everything still fits in the STLB (1024 entries), so
	// lookups must be at worst STLB hits, and the oldest pages must
	// have been evicted from the 64-entry L1.
	var l1Hits int
	for i := 0; i < n; i++ {
		r := h.Lookup(uint64(i)<<12, vm.Page4K)
		if r.Walked {
			t.Fatalf("page %d walked despite STLB capacity", i)
		}
		if r.L1Hit {
			l1Hits++
		}
	}
	if l1Hits > 64 {
		t.Fatalf("%d L1 hits from a 64-entry L1", l1Hits)
	}
}

func TestSTLBEviction(t *testing.T) {
	h := New(Scaled(Haswell(), 16)) // STLB = 64 entries
	n := 64 * 8
	for i := 0; i < n; i++ {
		va := uint64(i) << 12
		if r := h.Lookup(va, vm.Page4K); r.Walked {
			h.Fill(va, vm.Page4K)
		}
	}
	h.ResetStats()
	for i := 0; i < n; i++ {
		h.Lookup(uint64(i)<<12, vm.Page4K)
	}
	if h.Stats().STLBMisses == 0 {
		t.Fatal("no STLB misses despite 8x capacity pressure")
	}
}

func TestLRUWithinSet(t *testing.T) {
	// Single-set fully-associative config for precise LRU checks.
	cfg := Config{
		Name:  "tiny",
		L1D4K: SetConfig{Entries: 4, Ways: 4},
		L1D2M: SetConfig{Entries: 1, Ways: 1},
		STLB:  SetConfig{Entries: 8, Ways: 8},
	}
	h := New(cfg)
	pages := []uint64{1, 2, 3, 4}
	for _, p := range pages {
		h.Lookup(p<<12, vm.Page4K)
		h.Fill(p<<12, vm.Page4K)
	}
	// Touch page 1 so page 2 becomes LRU, then insert page 5.
	h.Lookup(1<<12, vm.Page4K)
	h.Lookup(5<<12, vm.Page4K)
	h.Fill(5<<12, vm.Page4K)
	if r := h.Lookup(1<<12, vm.Page4K); !r.L1Hit {
		t.Fatal("recently used page 1 was evicted")
	}
	if r := h.Lookup(2<<12, vm.Page4K); r.L1Hit {
		t.Fatal("LRU page 2 survived eviction")
	}
}

func TestInvalidate(t *testing.T) {
	h := New(Haswell())
	va := uint64(0x12345000)
	h.Lookup(va, vm.Page4K)
	h.Fill(va, vm.Page4K)
	h.Invalidate(va, vm.Page4K)
	if r := h.Lookup(va, vm.Page4K); r.L1Hit || r.STLBHit {
		t.Fatalf("lookup after shootdown = %+v", r)
	}
}

func TestWalkCostLevels(t *testing.T) {
	h := New(Haswell())
	va := uint64(0x7000_1234_5678)
	memLv, pwcLv := h.WalkCost(va, vm.Page4K)
	if memLv != 4 || pwcLv != 0 {
		t.Fatalf("cold 4K walk = (%d,%d), want (4,0)", memLv, pwcLv)
	}
	// Second walk in the same 2MB region: PDE cached, 1 memory level.
	memLv, pwcLv = h.WalkCost(va+4096, vm.Page4K)
	if memLv != 1 || pwcLv != 3 {
		t.Fatalf("warm 4K walk = (%d,%d), want (1,3)", memLv, pwcLv)
	}
	h.Reset()
	memLv, _ = h.WalkCost(va, vm.Page2M)
	if memLv != 3 {
		t.Fatalf("cold 2M walk = %d memory levels, want 3", memLv)
	}
	// Same 1GB region: PDPTE cached → only the PDE fetch.
	memLv, pwcLv = h.WalkCost(va+2<<21, vm.Page2M)
	if memLv != 1 || pwcLv != 2 {
		t.Fatalf("warm 2M walk = (%d,%d), want (1,2)", memLv, pwcLv)
	}
}

// TestWalkCostRefreshesHitLevelOnce pins that a walk refreshes the
// paging-structure-cache entry that hit exactly once: the hit level's
// array clock advances by 1, for its lookup, and is not advanced again
// by a second insert of the same entry.
func TestWalkCostRefreshesHitLevelOnce(t *testing.T) {
	const va = uint64(0x7000_1234_5678)
	h := New(Haswell())
	for _, c := range []struct {
		level  string
		va     uint64
		size   vm.PageSizeClass
		cached int
		pwc    *setAssoc
	}{
		{"PDE", va + 4096, vm.Page4K, 3, h.pwcPDE},      // same 2MB region
		{"PDPTE", va + 2<<21, vm.Page2M, 2, h.pwcPDPTE}, // same 1GB region
		{"PML4E", va + 1<<30, vm.Page4K, 1, h.pwcPML4E}, // same 512GB region
	} {
		h.Reset()
		h.WalkCost(va, vm.Page4K)
		before := c.pwc.clock
		if _, cached := h.WalkCost(c.va, c.size); cached != c.cached {
			t.Fatalf("%s: walk found %d cached levels, want %d", c.level, cached, c.cached)
		}
		if got := c.pwc.clock - before; got != 1 {
			t.Errorf("%s hit advanced its array clock by %d, want 1", c.level, got)
		}
	}
}

func TestStatsRates(t *testing.T) {
	s := Stats{Lookups: 100, L1Misses: 30, STLBMisses: 10}
	if s.DTLBMissRate() != 0.3 || s.STLBMissRate() != 0.1 {
		t.Fatalf("rates = %v, %v", s.DTLBMissRate(), s.STLBMissRate())
	}
	var zero Stats
	if zero.DTLBMissRate() != 0 || zero.STLBMissRate() != 0 {
		t.Fatal("zero stats rates not zero")
	}
}

func TestResetClearsEverything(t *testing.T) {
	h := New(Haswell())
	va := uint64(0xABC000)
	h.Lookup(va, vm.Page4K)
	h.Fill(va, vm.Page4K)
	h.Reset()
	if s := h.Stats(); s.Lookups != 0 {
		t.Fatal("stats survived reset")
	}
	if r := h.Lookup(va, vm.Page4K); !r.Walked {
		t.Fatal("entry survived reset")
	}
}

// TestQuickFillThenHit: any filled translation must hit until something
// else could have evicted it; immediately after Fill, a lookup of the
// same page always hits L1.
func TestQuickFillThenHit(t *testing.T) {
	h := New(Haswell())
	f := func(page uint64, huge bool) bool {
		size := vm.Page4K
		if huge {
			size = vm.Page2M
		}
		va := (page % (1 << 36)) << 12
		h.Fill(va, size)
		r := h.Lookup(va, size)
		return r.L1Hit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickStatsConsistent: misses never exceed lookups; walks never
// exceed L1 misses.
func TestQuickStatsConsistent(t *testing.T) {
	f := func(pages []uint32) bool {
		h := New(Scaled(Haswell(), 8))
		for _, p := range pages {
			va := uint64(p) << 12
			if r := h.Lookup(va, vm.Page4K); r.Walked {
				h.Fill(va, vm.Page4K)
			}
		}
		s := h.Stats()
		return s.L1Misses <= s.Lookups && s.STLBMisses <= s.L1Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
