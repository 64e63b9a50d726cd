package cache

import (
	"fmt"

	"graphmem/internal/ckpt"
	"graphmem/internal/lru"
)

// State walk (DESIGN.md §5e). Each level is walked by lru.Walk, its
// sets verbatim, so a forked or loaded cache replaces and bulk-hits
// exactly as the original would have. A decoded hierarchy is validated
// against its decoded Config with the geometry rule New enforces, and
// every decoded set must be a well-formed recency list, failing the
// Decoder instead of panicking or mis-simulating on hostile images.

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

func (h *Hierarchy) state(w *ckpt.Walker) {
	h.cfg.state(w)
	lru.Walk(w, &h.l1)
	lru.Walk(w, &h.llc)
	ckpt.Fixed(w, &h.stats)
}

// Walk forks, encodes, or decodes the hierarchy *p owns; a decoded
// hierarchy is validated before the walk returns.
func Walk(w *ckpt.Walker, p **Hierarchy) {
	ckpt.Ptr(w, p, (*Hierarchy).state)
	if d := w.Decoder(); d != nil && d.Err() == nil {
		if err := (*p).checkLevels(); err != nil {
			d.Failf("cache: %v", err)
		}
	}
}

// checkLevels reports the first level whose config breaks the geometry
// rule or whose array is not the well-formed one that config gives.
func (h *Hierarchy) checkLevels() error {
	for _, l := range []struct {
		name string
		c    LevelConfig
		s    *lru.Sets
	}{{"l1", h.cfg.L1D, h.l1}, {"llc", h.cfg.LLC, h.llc}} {
		sets, err := l.c.sets()
		if err == nil {
			err = l.s.Check(sets, l.c.Ways)
		}
		if err != nil {
			return fmt.Errorf("%s: %v", l.name, err)
		}
	}
	return nil
}
