package tlb

import (
	"fmt"

	"graphmem/internal/lru"
)

// CheckInvariants validates every array of the hierarchy against its
// config and returns an error describing the first violation. The
// simcheck runtime sanitizer (check.Audit) calls it at policy
// boundaries, decoding a hierarchy runs it on the decoded state, and
// tests call it after operation sequences.
//
// Checked per set-associative structure, whose sets are recency lists:
//
//   - geometry: the config passes SetConfig.sets, and the array has the
//     shape it gives;
//   - valid tags form a prefix of their set (no tag after an empty
//     slot), so the set's last slot is always its victim;
//   - no duplicate tags within a set (a duplicate would make hit/evict
//     behaviour depend on slot order);
//   - set residency: a tag's key hashes to the set that holds it.
func (h *Hierarchy) CheckInvariants() error {
	for _, st := range []struct {
		name string
		c    SetConfig
		s    *lru.Sets
	}{
		{"l1d4k", h.cfg.L1D4K, h.l14k},
		{"l1d2m", h.cfg.L1D2M, h.l12m},
		{"stlb", h.cfg.STLB, h.stlb},
		{"pwc-pde", h.cfg.PWCPDE, h.pwcPDE},
		{"pwc-pdpte", h.cfg.PWCPDPTE, h.pwcPDPTE},
		{"pwc-pml4e", h.cfg.PWCPML4E, h.pwcPML4E},
	} {
		sets, err := st.c.sets()
		if err == nil {
			err = st.s.Check(sets, st.c.Ways)
		}
		if err != nil {
			return fmt.Errorf("%s: %v", st.name, err)
		}
	}
	return nil
}
