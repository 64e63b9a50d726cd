package workload

import (
	"graphmem/internal/ckpt"
	"graphmem/internal/memsys"
)

// State walk (DESIGN.md §5e). Only the two interference sources a
// snapshot-safe machine can carry have one: Memhog (static pin set) and
// PageCache (resident file pages). A Churner mutates memory between
// accesses, which is exactly what core.SnapshotSafe forbids, so it has
// none — a machine holding one is never forked or saved.
//
// Both are frame owners: memsys hands them to the caller's OwnerFunc,
// which walks them here bound to the node being forked into or decoded.
// A decoded pin or resident set is validated against that node: frames
// in range, runs sorted and disjoint, counters consistent. The frames
// themselves were already decoded (with owner refs pointing at these
// owners' table slots) by memsys.

func (h *Memhog) state(w *ckpt.Walker) {
	_ = h.mem // binding; set by WalkMemhog
	ckpt.Slice(w, &h.runs)
	w.Int(&h.pages)
}

func (pc *PageCache) state(w *ckpt.Walker) {
	_ = pc.mem // binding; set by WalkPageCache
	ckpt.Map(w, &pc.frames, "workload: page cache frame")
}

// WalkMemhog forks, encodes, or decodes the memhog *p (nil on decode),
// binding a fork or decoded copy to mem.
func WalkMemhog(w *ckpt.Walker, p **Memhog, mem *memsys.Memory) {
	h := bindOwner(w, p, (*Memhog).state, func(h *Memhog) { h.mem = mem })
	d := w.Decoder()
	if d == nil || d.Err() != nil {
		return
	}
	// remove/insert binary-search over sorted, disjoint, non-touching
	// maximal runs; anything else corrupts the pin set silently.
	total := mem.TotalPages()
	var sum uint64
	prevEnd := uint64(0)
	for i, r := range h.runs {
		end := uint64(r.start) + uint64(r.n)
		if r.n == 0 || (i > 0 && uint64(r.start) <= prevEnd) || end > total {
			d.Failf("workload: memhog run [%d,+%d) empty, out of order, or out of range", r.start, r.n)
			return
		}
		prevEnd = end
		sum += uint64(r.n)
	}
	if sum != uint64(h.pages) || h.pages < 0 {
		d.Failf("workload: memhog page counter %d but runs hold %d pages", h.pages, sum)
	}
}

// WalkPageCache forks, encodes, or decodes the page cache *p (nil on
// decode), binding a fork or decoded copy to mem.
func WalkPageCache(w *ckpt.Walker, p **PageCache, mem *memsys.Memory) {
	pc := bindOwner(w, p, (*PageCache).state, func(pc *PageCache) { pc.mem = mem })
	d := w.Decoder()
	if d == nil || d.Err() != nil {
		return
	}
	var top memsys.Frame
	for f := range pc.frames {
		top = max(top, f)
	}
	if uint64(top) >= mem.TotalPages() {
		d.Failf("workload: page cache frame %d out of order or out of range", top)
	}
}

// bindOwner walks the owner *p and, on a fork or decode, runs its bind
// step.
func bindOwner[T any](w *ckpt.Walker, p **T, state func(*T, *ckpt.Walker), bind func(*T)) *T {
	ckpt.Ptr(w, p, state)
	if w.Encoder() == nil {
		bind(*p)
	}
	return *p
}
