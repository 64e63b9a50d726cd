package cache

import (
	"testing"
	"testing/quick"

	"graphmem/internal/check"
)

func TestHaswellBuilds(t *testing.T) {
	h := New(Haswell())
	if h.Config().L1D.Bytes != 32<<10 {
		t.Fatalf("L1D = %d", h.Config().L1D.Bytes)
	}
}

func TestScaledClamps(t *testing.T) {
	for _, div := range []int{1, 2, 10, 1000000} {
		New(Scaled(Haswell(), div)) // must not panic
	}
}

func TestMissThenHits(t *testing.T) {
	h := New(Haswell())
	if lvl := h.Access(0x1000); lvl != HitDRAM {
		t.Fatalf("cold access = %v", lvl)
	}
	if lvl := h.Access(0x1000 + 63); lvl != HitL1 {
		t.Fatalf("same-line access = %v", lvl)
	}
	if lvl := h.Access(0x1000 + 64); lvl != HitDRAM {
		t.Fatalf("next-line access = %v", lvl)
	}
	s := h.Stats()
	if s.Accesses != 3 || s.L1Misses != 2 || s.LLCMiss != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestL1EvictionToLLC(t *testing.T) {
	cfg := Haswell()
	h := New(cfg)
	// Stream 4x the L1 capacity, then re-touch the start: L1 must miss
	// but the LLC (2.5MB) still holds it.
	lines := 4 * cfg.L1D.Bytes / 64
	for i := 0; i < lines; i++ {
		h.Access(uint64(i) * 64)
	}
	if lvl := h.Access(0); lvl != HitLLC {
		t.Fatalf("re-touch after L1 overflow = %v, want LLC hit", lvl)
	}
}

func TestLLCEvictionToDRAM(t *testing.T) {
	cfg := Scaled(Haswell(), 16)
	h := New(cfg)
	lines := 4 * cfg.LLC.Bytes / 64
	for i := 0; i < lines; i++ {
		h.Access(uint64(i) * 64)
	}
	if lvl := h.Access(0); lvl != HitDRAM {
		t.Fatalf("re-touch after LLC overflow = %v, want DRAM", lvl)
	}
}

func TestResetStats(t *testing.T) {
	h := New(Haswell())
	h.Access(0)
	h.ResetStats()
	if h.Stats().Accesses != 0 {
		t.Fatal("stats survived ResetStats")
	}
	if lvl := h.Access(0); lvl != HitL1 {
		t.Fatal("contents did not survive ResetStats")
	}
	h.Reset()
	if lvl := h.Access(0); lvl == HitL1 {
		t.Fatal("contents survived Reset")
	}
}

func TestMissRates(t *testing.T) {
	s := Stats{Accesses: 200, L1Misses: 50, LLCMiss: 20}
	if s.L1MissRate() != 0.25 || s.LLCMissRate() != 0.1 {
		t.Fatalf("rates = %v/%v", s.L1MissRate(), s.LLCMissRate())
	}
}

// TestQuickSecondAccessNeverDRAM: touching an address twice in a row
// must hit L1 the second time.
func TestQuickSecondAccessNeverDRAM(t *testing.T) {
	h := New(Haswell())
	f := func(pa uint64) bool {
		h.Access(pa)
		return h.Access(pa) == HitL1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickStatsMonotone: L1 misses bound LLC misses.
func TestQuickStatsMonotone(t *testing.T) {
	f := func(addrs []uint32) bool {
		h := New(Scaled(Haswell(), 8))
		for _, a := range addrs {
			h.Access(uint64(a))
		}
		s := h.Stats()
		return s.LLCMiss <= s.L1Misses && s.L1Misses <= s.Accesses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestAccessRepeatL1RequiresMRU pins the bulk repeat contract: n repeat
// hits on the MRU line of its L1 set count n accesses and nothing else,
// and under -tags simcheck a repeat hit on a line that is resident but
// not MRU in its set panics.
func TestAccessRepeatL1RequiresMRU(t *testing.T) {
	h := New(Haswell())
	sets, _ := h.cfg.L1D.sets()
	a, b := uint64(0), uint64(sets)<<LineShift // both in L1 set 0
	h.Access(a)
	h.Access(b)
	h.AccessRepeatL1(b, 5)
	if s := h.Stats(); s != (Stats{Accesses: 7, L1Misses: 2, LLCMiss: 2}) {
		t.Fatalf("two misses and 5 repeat hits counted %+v", s)
	}
	if !check.Enabled {
		return
	}
	defer func() {
		if recover() == nil {
			t.Fatal("repeat hit on a line that is not its set's MRU line did not panic")
		}
	}()
	h.AccessRepeatL1(a, 1)
}
