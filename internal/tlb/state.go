package tlb

import (
	"graphmem/internal/ckpt"
	"graphmem/internal/lru"
)

// State walk (DESIGN.md §5e). Every set-associative array is walked by
// lru.Walk, its sets verbatim: each set's order is its LRU stack, which
// replacement decisions depend on, so anything less would break the
// fork and reload determinism contract (MODEL.md §7). A decoded
// hierarchy must pass CheckInvariants, which holds every array to the
// geometry rule New enforces and every set to the recency-list check,
// failing the Decoder instead of panicking or mis-simulating, since the
// image may be hostile.

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

func (h *Hierarchy) state(w *ckpt.Walker) {
	h.cfg.state(w)
	lru.Walk(w, &h.l14k)
	lru.Walk(w, &h.l12m)
	lru.Walk(w, &h.stlb)
	lru.Walk(w, &h.pwcPDE)
	lru.Walk(w, &h.pwcPDPTE)
	lru.Walk(w, &h.pwcPML4E)
	ckpt.Fixed(w, &h.stats)
}

// Walk forks, encodes, or decodes the hierarchy *p owns; a decoded
// hierarchy is validated before the walk returns.
func Walk(w *ckpt.Walker, p **Hierarchy) {
	ckpt.Ptr(w, p, (*Hierarchy).state)
	if d := w.Decoder(); d != nil && d.Err() == nil {
		if err := (*p).CheckInvariants(); err != nil {
			d.Failf("tlb: %v", err)
		}
	}
}
