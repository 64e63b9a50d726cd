package tlb

import (
	"testing"

	"graphmem/internal/vm"
)

// TestCheckInvariantsCleanAfterTraffic drives a realistic mixed-size
// access stream (lookups, fills, walks that populate the PWCs, and
// invalidations) and requires the structural audit to stay clean.
func TestCheckInvariantsCleanAfterTraffic(t *testing.T) {
	h := New(Haswell())
	for i := uint64(0); i < 20000; i++ {
		va := (i * 0x9E3779B97F4A7C15) &^ 0xFFF
		size := vm.Page4K
		if i%3 == 0 {
			size = vm.Page2M
			va &^= (1 << 21) - 1
		}
		r := h.Lookup(va, size)
		if r.Walked {
			h.WalkCost(va, size)
			h.Fill(va, size)
		}
		if i%97 == 0 {
			h.Invalidate(va, size)
		}
		if i%4096 == 0 {
			if err := h.CheckInvariants(); err != nil {
				t.Fatalf("audit failed mid-stream at op %d: %v", i, err)
			}
		}
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatalf("audit failed after traffic: %v", err)
	}
	h.Reset()
	if err := h.CheckInvariants(); err != nil {
		t.Fatalf("audit failed after Reset: %v", err)
	}
}

// The seeded-corruption tests plant one specific inconsistency each and
// require CheckInvariants to reject it.

func TestCheckInvariantsDetectsDuplicateTag(t *testing.T) {
	h := New(Haswell())
	copy(h.stlb.tags, []uint64{1, 1}) // key 0 planted twice in set 0
	if err := h.CheckInvariants(); err == nil {
		t.Fatal("duplicate tag within a set not detected")
	}
}

func TestCheckInvariantsDetectsWrongSet(t *testing.T) {
	h := New(Haswell())
	h.l14k.tags[0] = 2 // key 1 belongs to set 1, planted in set 0
	if err := h.CheckInvariants(); err == nil {
		t.Fatal("tag resident in the wrong set not detected")
	}
}

func TestCheckInvariantsDetectsHole(t *testing.T) {
	h := New(Haswell())
	h.pwcPDE.tags[1] = 1 // key 0 planted behind set 0's invalid first slot
	if err := h.CheckInvariants(); err == nil {
		t.Fatal("valid tag after an invalid slot not detected")
	}
}
