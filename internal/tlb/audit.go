package tlb

import "fmt"

// CheckInvariants validates the structural invariants of every array in
// the hierarchy and returns an error describing the first violation.
// The simcheck runtime sanitizer (check.Audit) calls it at policy
// boundaries; tests call it after operation sequences.
//
// Checked per set-associative structure:
//
//   - occupancy: each set holds at most `ways` valid entries (the set
//     blocks are sets×ways, so a violation means index corruption);
//   - no duplicate tags within a set (a duplicate would make hit/evict
//     behaviour depend on way-scan order);
//   - set residency: a tag's key hashes to the set that holds it;
//   - LRU sanity: stamps never exceed the structure's clock, and
//     invalid ways carry a zero stamp.
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
		if len(s.block) != 0 {
			return fmt.Errorf("zero ways but %d way slots", len(s.block))
		}
		return nil
	}
	sets := int(s.setsMask) + 1
	if len(s.block) != sets*s.ways {
		return fmt.Errorf("geometry mismatch: %d sets × %d ways but %d way slots",
			sets, s.ways, len(s.block))
	}
	for set := 0; set < sets; set++ {
		blk := s.block[set*s.ways : (set+1)*s.ways]
		occupied := 0
		for w, e := range blk {
			tag := e.tag
			if tag == 0 {
				if e.stamp != 0 {
					return fmt.Errorf("set %d way %d: invalid entry with nonzero stamp %d", set, w, e.stamp)
				}
				continue
			}
			occupied++
			if got := int((tag - 1) & s.setsMask); got != set {
				return fmt.Errorf("set %d way %d: tag %#x belongs to set %d", set, w, tag, got)
			}
			if e.stamp > s.clock {
				return fmt.Errorf("set %d way %d: stamp %d exceeds clock %d", set, w, e.stamp, s.clock)
			}
			for w2 := w + 1; w2 < s.ways; w2++ {
				if blk[w2].tag == tag {
					return fmt.Errorf("set %d: duplicate tag %#x in ways %d and %d", set, tag, w, w2)
				}
			}
		}
		if occupied > s.ways {
			return fmt.Errorf("set %d: occupancy %d exceeds associativity %d", set, occupied, s.ways)
		}
	}
	return nil
}
