// Package sl013 exercises SL013: a state method must reference every
// field of its receiver struct, directly or via a same-package function
// it reaches, and a raw-memory walk must move a pointer-free,
// padding-free type.
package sl013

import "graphmem/internal/ckpt"

// Engine's walk is complete: it lists every field itself.
type Engine struct {
	cfg   int
	ticks []uint64
}

func (e *Engine) state(w *ckpt.Walker) {
	w.Int(&e.cfg)
	ckpt.Slice(w, &e.ticks)
}

// Tracker's walk reaches seen through a helper (the transitive-reach
// case) but never mentions count — the seeded violation — while note
// carries a reviewed waiver.
type Tracker struct {
	id    uint32
	seen  []uint32
	count uint64
	note  string //simlint:ignore SL013 scratch label; the bind step resets it
}

func (t *Tracker) state(w *ckpt.Walker) {
	w.U32(&t.id)
	walkSeen(w, t)
}

func walkSeen(w *ckpt.Walker, t *Tracker) { ckpt.Slice(w, &t.seen) }

// header has interior padding, so walking it as raw memory is the
// seeded raw-walk violation, both as a fixed value and as the element of
// a paged array.
type header struct {
	flag bool
	n    uint64
}

func walkHeader(w *ckpt.Walker, h *header) { ckpt.Fixed(w, h) }

// Log walks two paged arrays: its words pass, and its padded headers
// are the seeded paged violation.
type Log struct {
	words   ckpt.Paged[uint64]
	headers ckpt.Paged[header]
}

func (l *Log) state(w *ckpt.Walker) {
	ckpt.Pages(w, &l.words)
	ckpt.Pages(w, &l.headers)
}
