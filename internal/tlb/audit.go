package tlb

import (
	"fmt"
	"slices"
)

// CheckInvariants validates the structural invariants of every array in
// the hierarchy and returns an error describing the first violation.
// The simcheck runtime sanitizer (check.Audit) calls it at policy
// boundaries; tests call it after operation sequences.
//
// Checked per set-associative structure, whose sets are recency lists:
//
//   - geometry: the tag array holds sets × ways slots;
//   - valid tags form a prefix of their set (no tag after an invalid
//     slot), so the set's last slot is always its victim;
//   - no duplicate tags within a set (a duplicate would make hit/evict
//     behaviour depend on slot order);
//   - set residency: a tag's key hashes to the set that holds it.
func (h *Hierarchy) CheckInvariants() error {
	structs := []struct {
		name string
		s    *setAssoc
	}{
		{"l1d4k", h.l14k},
		{"l1d2m", h.l12m},
		{"stlb", h.stlb},
		{"pwc-pde", h.pwcPDE},
		{"pwc-pdpte", h.pwcPDPTE},
		{"pwc-pml4e", h.pwcPML4E},
	}
	for _, st := range structs {
		if err := st.s.checkInvariants(); err != nil {
			return fmt.Errorf("%s: %v", st.name, err)
		}
	}
	return nil
}

func (s *setAssoc) checkInvariants() error {
	if s.ways == 0 {
		if len(s.tags) != 0 {
			return fmt.Errorf("zero ways but %d slots", len(s.tags))
		}
		return nil
	}
	sets := int(s.setsMask) + 1
	if len(s.tags) != sets*s.ways {
		return fmt.Errorf("geometry mismatch: %d sets × %d ways but %d slots",
			sets, s.ways, len(s.tags))
	}
	for i := 0; i < sets; i++ {
		set := s.tags[i*s.ways : (i+1)*s.ways]
		for w, t := range set {
			switch {
			case t == 0:
			case w > 0 && set[w-1] == 0:
				return fmt.Errorf("set %d slot %d: tag %#x after an invalid slot", i, w, t)
			case int((t-1)&s.setsMask) != i:
				return fmt.Errorf("set %d slot %d: tag %#x belongs to set %d", i, w, t, (t-1)&s.setsMask)
			case slices.Contains(set[:w], t):
				return fmt.Errorf("set %d: duplicate tag %#x", i, t)
			}
		}
	}
	return nil
}
