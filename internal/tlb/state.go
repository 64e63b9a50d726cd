package tlb

import "graphmem/internal/ckpt"

// State walk (DESIGN.md §5e). The tag array of every set-associative
// array is walked verbatim: each set's order is its LRU stack, which
// replacement decisions depend on, so anything less would break the
// fork and reload determinism contract (MODEL.md §7). A decoded
// hierarchy is validated against its decoded Config with the same rules
// New enforces, and every decoded set must pass the audit's recency
// list check, failing the Decoder instead of panicking or
// mis-simulating, since the image may be hostile.

func (c *SetConfig) state(w *ckpt.Walker) {
	w.Int(&c.Entries)
	w.Int(&c.Ways)
	if d := w.Decoder(); d != nil && (c.Entries < 0 || c.Entries > 1<<30 || c.Ways < 0 || c.Ways > 1<<20) {
		d.Failf("tlb: set config %d entries / %d ways out of range", c.Entries, c.Ways)
	}
}

func (c *Config) state(w *ckpt.Walker) {
	w.String(&c.Name)
	c.L1D4K.state(w)
	c.L1D2M.state(w)
	c.STLB.state(w)
	c.PWCPDE.state(w)
	c.PWCPDPTE.state(w)
	c.PWCPML4E.state(w)
}

func (s *setAssoc) state(w *ckpt.Walker) {
	w.U64(&s.setsMask)
	w.Int(&s.ways)
	ckpt.Slice(w, &s.tags)
}

func (h *Hierarchy) state(w *ckpt.Walker) {
	h.cfg.state(w)
	ckpt.Ptr(w, &h.l14k, (*setAssoc).state)
	ckpt.Ptr(w, &h.l12m, (*setAssoc).state)
	ckpt.Ptr(w, &h.stlb, (*setAssoc).state)
	ckpt.Ptr(w, &h.pwcPDE, (*setAssoc).state)
	ckpt.Ptr(w, &h.pwcPDPTE, (*setAssoc).state)
	ckpt.Ptr(w, &h.pwcPML4E, (*setAssoc).state)
	ckpt.Fixed(w, &h.stats)
}

// Walk forks, encodes, or decodes the hierarchy *p owns; a decoded
// hierarchy is validated before the walk returns.
func Walk(w *ckpt.Walker, p **Hierarchy) {
	ckpt.Ptr(w, p, (*Hierarchy).state)
	if d := w.Decoder(); d != nil {
		h := *p
		h.l14k.checkGeometry(d, h.cfg.L1D4K, "l14k")
		h.l12m.checkGeometry(d, h.cfg.L1D2M, "l12m")
		h.stlb.checkGeometry(d, h.cfg.STLB, "stlb")
		h.pwcPDE.checkGeometry(d, h.cfg.PWCPDE, "pwcPDE")
		h.pwcPDPTE.checkGeometry(d, h.cfg.PWCPDPTE, "pwcPDPTE")
		h.pwcPML4E.checkGeometry(d, h.cfg.PWCPML4E, "pwcPML4E")
	}
}

// checkGeometry fails the decoder unless s has exactly the shape
// newSetAssoc(c) would build and every set is a recency list.
func (s *setAssoc) checkGeometry(d *ckpt.Decoder, c SetConfig, name string) {
	if d.Err() != nil {
		return
	}
	if c.Entries == 0 {
		if s.setsMask != 0 || s.ways != 0 || len(s.tags) != 0 {
			d.Failf("tlb: %s: zero-entry config with non-empty array", name)
		}
		return
	}
	if c.Ways <= 0 || c.Entries%c.Ways != 0 {
		d.Failf("tlb: %s: %d entries not divisible by %d ways", name, c.Entries, c.Ways)
		return
	}
	sets := c.Entries / c.Ways
	if sets&(sets-1) != 0 {
		d.Failf("tlb: %s: set count %d not a power of two", name, sets)
		return
	}
	if s.ways != c.Ways || s.setsMask != uint64(sets-1) || len(s.tags) != sets*c.Ways {
		d.Failf("tlb: %s: array shape does not match config (%d entries, %d ways)",
			name, c.Entries, c.Ways)
		return
	}
	if err := s.checkInvariants(); err != nil {
		d.Failf("tlb: %s: %v", name, err)
	}
}
