package cache

import (
	"fmt"
	"slices"

	"graphmem/internal/ckpt"
)

// State walk (DESIGN.md §5e). Each level's tag array is walked
// verbatim: every set's order is its LRU stack, so a forked or loaded
// cache replaces and bulk-hits exactly as the original would have. A
// decoded hierarchy is validated against its decoded Config with
// newLevel's rules, and every decoded set must be a well-formed
// recency list, failing the Decoder instead of panicking or
// mis-simulating on hostile images.

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
	ckpt.Slice(w, &l.tags)
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
// zero-line levels never exist in a staged machine), and unless every
// set is a well-formed recency list.
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
	if l.ways != c.Ways || l.setsMask != uint64(sets-1) || len(l.tags) != lines {
		d.Failf("cache: %s: array shape does not match config (%d bytes, %d ways)",
			name, c.Bytes, c.Ways)
		return
	}
	if err := l.checkSets(); err != nil {
		d.Failf("cache: %s: %v", name, err)
	}
}

// checkSets reports the first set that is not a recency list: its
// resident tags must come before its empty slots, be distinct, and
// belong to that set.
func (l *level) checkSets() error {
	for s := 0; s <= int(l.setsMask); s++ {
		set := l.tags[s*l.ways : (s+1)*l.ways]
		for w, t := range set {
			switch {
			case t == 0:
			case w > 0 && set[w-1] == 0:
				return fmt.Errorf("set %d slot %d: tag %#x after an empty slot", s, w, t)
			case int((t-1)&l.setsMask) != s:
				return fmt.Errorf("set %d slot %d: tag %#x belongs to set %d", s, w, t, (t-1)&l.setsMask)
			case slices.Contains(set[:w], t):
				return fmt.Errorf("set %d: duplicate tag %#x", s, t)
			}
		}
	}
	return nil
}
