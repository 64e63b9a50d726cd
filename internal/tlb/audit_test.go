package tlb

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"graphmem/internal/ckpt"
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
	copy(h.stlb.Set(0), []uint64{1, 1}) // key 0 planted twice in set 0
	if err := h.CheckInvariants(); err == nil {
		t.Fatal("duplicate tag within a set not detected")
	}
}

func TestCheckInvariantsDetectsWrongSet(t *testing.T) {
	h := New(Haswell())
	h.l14k.Set(0)[0] = 2 // key 1 belongs to set 1, planted in set 0
	if err := h.CheckInvariants(); err == nil {
		t.Fatal("tag resident in the wrong set not detected")
	}
}

func TestCheckInvariantsDetectsHole(t *testing.T) {
	h := New(Haswell())
	h.pwcPDE.Set(0)[1] = 1 // key 0 planted behind set 0's invalid first slot
	if err := h.CheckInvariants(); err == nil {
		t.Fatal("valid tag after an invalid slot not detected")
	}
}

// TestDecodeRejectsMalformedSets requires decoding an encoded hierarchy
// to reproduce its L1 4K sets, and to fail, naming the array, once a
// duplicate tag is planted in one of them: decoding runs
// CheckInvariants. lru's TestCheckRejectsMalformedSets covers every way
// a set can be malformed.
func TestDecodeRejectsMalformedSets(t *testing.T) {
	// Set 0 of Haswell's 16-set L1 4K array holds the keys that are
	// multiples of 16, whose tags are 1, 17, 33, ...
	for _, c := range []struct {
		set0 []uint64
		want string // in the decode error; "" for a clean set
	}{
		{[]uint64{17, 1, 0, 0}, ""},
		{[]uint64{17, 17, 0, 0}, "tlb: l1d4k: set 0: duplicate tag"},
	} {
		h := New(Haswell())
		copy(h.l14k.Set(0), c.set0)
		var buf bytes.Buffer
		if _, err := ckpt.Save(&buf, "tlb", func(e *ckpt.Encoder) { Walk(e.Walker(), &h) }); err != nil {
			t.Fatal(err)
		}
		d, err := ckpt.Load(bytes.NewReader(buf.Bytes()), "tlb")
		if err != nil {
			t.Fatal(err)
		}
		var got *Hierarchy
		Walk(d.Walker(), &got)
		err = d.Finish()
		switch {
		case c.want == "" && err != nil:
			t.Fatalf("set 0 = %#x failed to decode: %v", c.set0, err)
		case c.want == "" && !slices.Equal(got.l14k.Set(0), c.set0):
			t.Fatalf("decoded L1 4K set 0 %#x, encoded %#x", got.l14k.Set(0), c.set0)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Fatalf("set 0 = %#x decoded with error %v, want one naming %q", c.set0, err, c.want)
		}
	}
}
