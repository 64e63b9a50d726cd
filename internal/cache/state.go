package cache

import "graphmem/internal/ckpt"

// State walk (DESIGN.md §5e). The set blocks (tags and LRU stamps), the
// clock, and each level's memoized last-touched way are walked
// verbatim — AccessRepeatL1's bulk fast path reads last directly, so a
// forked or loaded cache must resume mid-stream exactly where the
// original stopped. A decoded hierarchy is validated against its
// decoded Config with newLevel's rules, failing the Decoder instead of
// panicking on hostile images.

func (c *LevelConfig) state(w *ckpt.Walker) {
	w.Int(&c.Bytes)
	w.Int(&c.Ways)
	if d := w.Decoder(); d != nil && (c.Bytes < 0 || c.Bytes > 1<<40 || c.Ways < 0 || c.Ways > 1<<20) {
		d.Failf("cache: level config %d bytes / %d ways out of range", c.Bytes, c.Ways)
	}
}

func (c *Config) state(w *ckpt.Walker) {
	w.String(&c.Name)
	c.L1D.state(w)
	c.LLC.state(w)
}

func (l *level) state(w *ckpt.Walker) {
	w.U64(&l.setsMask)
	w.Int(&l.ways)
	ckpt.Slice(w, &l.block)
	w.U64(&l.clock)
	w.Int(&l.last)
}

func (h *Hierarchy) state(w *ckpt.Walker) {
	h.cfg.state(w)
	ckpt.Ptr(w, &h.l1, (*level).state)
	ckpt.Ptr(w, &h.llc, (*level).state)
	ckpt.Fixed(w, &h.stats)
}

// Walk forks, encodes, or decodes the hierarchy *p owns; a decoded
// hierarchy is validated before the walk returns.
func Walk(w *ckpt.Walker, p **Hierarchy) {
	ckpt.Ptr(w, p, (*Hierarchy).state)
	if d := w.Decoder(); d != nil {
		h := *p
		h.l1.checkGeometry(d, h.cfg.L1D, "l1")
		h.llc.checkGeometry(d, h.cfg.LLC, "llc")
	}
}

// checkGeometry fails the decoder unless l has exactly the shape
// newLevel(c) would build, plus a resident line count (degenerate
// zero-line levels never exist in a staged machine) and an in-bounds
// last index (AccessRepeatL1 dereferences it unchecked).
func (l *level) checkGeometry(d *ckpt.Decoder, c LevelConfig, name string) {
	if d.Err() != nil {
		return
	}
	lines := c.Bytes >> LineShift
	if c.Ways <= 0 || lines%c.Ways != 0 {
		d.Failf("cache: %s: %d lines not divisible by %d ways", name, lines, c.Ways)
		return
	}
	sets := lines / c.Ways
	if sets == 0 || sets&(sets-1) != 0 {
		d.Failf("cache: %s: set count %d not a positive power of two", name, sets)
		return
	}
	if l.ways != c.Ways || l.setsMask != uint64(sets-1) || len(l.block) != lines {
		d.Failf("cache: %s: array shape does not match config (%d bytes, %d ways)",
			name, c.Bytes, c.Ways)
		return
	}
	if l.last < 0 || l.last >= len(l.block) {
		d.Failf("cache: %s: last-way index %d out of range [0,%d)", name, l.last, len(l.block))
	}
}
