package memsys

import (
	"math/bits"
	"slices"
	"sync/atomic"

	"graphmem/internal/ckpt"
)

// State walk (DESIGN.md §5e). The frame-metadata array is pointer-free
// 8-byte words (frameInfo) in copy-on-write pages, as are the free
// bitmaps, so the bulk of a node forks as a page-directory copy (the
// pages are shared until first written) and serializes as raw page
// writes — the near-memcpy path checkpoint save and load depend on, with
// the bytes a flat slice would write. Owners are the one indirection:
// frames hold interned ownerRefs into the owners table, and the table
// entries live outside this package (an address space, a memhog, a page
// cache), so the walk hands each distinct owner, in slot order, to the
// caller's OwnerFunc — once per owner, not once per frame. Slot order is
// load-bearing: every frame word carries its owner's table index.
//
// A decoded node is validated against everything a hostile image could
// use to reach an out-of-bounds access on the simulation path — array
// geometry against nframes, free-bitmap population against the free
// counters, per-frame owner refs and block orders, reclaim-queue bounds
// — failing the Decoder instead of panicking. Deeper conservation
// auditing stays where it lives today, in the simcheck build's audits.

// OwnerFunc walks one frame owner that lives outside the node. It is
// called once per non-nil owner-table slot, in slot order. On clone it
// returns o's counterpart in the fork, bound to mem, the node being
// cloned into; on encode it writes o and returns it; on decode o is nil
// and it returns the owner it reads, bound to mem (whose frame metadata
// is already decoded). A nil result fails the walk: an owner the caller
// cannot account for means the snapshot would be incomplete.
type OwnerFunc func(w *ckpt.Walker, o Owner, mem *Memory) Owner

func (q *frameQueue) state(w *ckpt.Walker) {
	ckpt.Slice(w, &q.items)
	w.Int(&q.head)
}

func (m *Memory) state(w *ckpt.Walker, owner OwnerFunc) {
	ckpt.Num(w, &m.nframes)
	ckpt.Pages(w, &m.frames)
	m.forkedState(w)
	if m.shadow != nil {
		// Test-only differential mirror: forks keep it coherent; a
		// machine staged for checkpointing never carries one.
		if w.Cloning() {
			m.shadow = slices.Clone(m.shadow)
		} else {
			w.Failf("memsys: shadow mirroring enabled; refusing to serialize")
		}
	}
	for o := range m.freeBits {
		ckpt.Pages(w, &m.freeBits[o])
	}
	ckpt.Fixed(w, &m.freeCount)
	ckpt.Fixed(w, &m.hint)
	w.U64(&m.freePages)
	for qi := range m.reclaimQ {
		m.reclaimQ[qi].state(w)
	}
	ckpt.Fixed(w, &m.allocByType)
	m.ownersState(w, owner)
	ckpt.Fixed(w, &m.stats)
}

// forkedState sets the forked flag, which the image does not carry: a
// clone marks the node it copies as forked — atomically and only once, as
// several goroutines may fork one node at once — and starts forked
// itself, since it shares every page; a decoded node owns all its pages.
func (m *Memory) forkedState(w *ckpt.Walker) {
	switch {
	case w.Cloning():
		if atomic.LoadUint32(m.forked) == 0 {
			atomic.StoreUint32(m.forked, 1)
		}
		forked := uint32(1)
		m.forked = &forked
	case w.Decoder() != nil:
		m.forked = new(uint32)
	}
}

// ownersState walks the interned owner table; slot 0, the nil owner, is
// implicit.
func (m *Memory) ownersState(w *ckpt.Walker, owner OwnerFunc) {
	n := len(m.owners)
	w.Len(&n, maxOwnerRefs)
	switch {
	case w.Encoder() != nil:
		if n > 0 && m.owners[0] != nil {
			w.Failf("memsys: owner slot 0 is %T, want nil", m.owners[0])
		}
	case w.Decoder() != nil:
		m.owners = make([]Owner, n)
	default:
		m.owners = slices.Clone(m.owners)
	}
	for i := 1; i < n; i++ {
		o := owner(w, m.owners[i], m)
		if o == nil {
			w.Failf("memsys: owner slot %d (%T) has no counterpart: snapshot incomplete", i, m.owners[i])
			return
		}
		if w.Encoder() == nil {
			m.owners[i] = o
		}
	}
}

// Walk forks, encodes, or decodes the node *p owns, resolving its owner
// table through owner; a decoded node is validated before the walk
// returns.
func Walk(w *ckpt.Walker, p **Memory, owner OwnerFunc) {
	ckpt.Ptr(w, p, func(m *Memory, w *ckpt.Walker) { m.state(w, owner) })
	if d := w.Decoder(); d != nil {
		(*p).validate(d)
	}
}

// validate fails the decoder unless the decoded node is structurally
// sound: every index the allocator dereferences unchecked must be in
// bounds, and the cheap conservation invariants must hold.
func (m *Memory) validate(d *ckpt.Decoder) {
	if d.Err() != nil {
		return
	}
	if uint64(m.frames.Len()) != uint64(m.nframes) {
		d.Failf("memsys: %d frame words for %d frames", m.frames.Len(), m.nframes)
		return
	}
	for _, q := range m.reclaimQ {
		if q.head < 0 || q.head > len(q.items) {
			d.Failf("memsys: reclaim queue head %d out of range [0,%d]", q.head, len(q.items))
			return
		}
		for _, f := range q.items {
			if f >= m.nframes {
				d.Failf("memsys: reclaim queue entry %d beyond %d frames", f, m.nframes)
				return
			}
		}
	}
	words := int((uint32(m.nframes) + 63) / 64)
	var freeByCount uint64
	for o := range m.freeBits {
		bm := &m.freeBits[o]
		if bm.Len() != words {
			d.Failf("memsys: order-%d bitmap has %d words, want %d", o, bm.Len(), words)
			return
		}
		var pop uint32
		for lo := 0; lo < words; {
			s := bm.Span(lo, words)
			for w, bitsWord := range s {
				pop += uint32(bits.OnesCount64(bitsWord))
				for bw := bitsWord; bw != 0; bw &= bw - 1 {
					f := Frame((lo+w)*64 + bits.TrailingZeros64(bw))
					if f%(1<<o) != 0 || uint64(f)+1<<o > uint64(m.nframes) {
						d.Failf("memsys: free order-%d block at frame %d misaligned or out of range", o, f)
						return
					}
				}
			}
			lo += len(s)
		}
		if pop != m.freeCount[o] {
			d.Failf("memsys: order-%d free count %d but bitmap has %d blocks", o, m.freeCount[o], pop)
			return
		}
		freeByCount += uint64(m.freeCount[o]) << o
	}
	if freeByCount != m.freePages {
		d.Failf("memsys: free pages %d but free blocks sum to %d", m.freePages, freeByCount)
		return
	}
	// The frame scan checks a run of frames sharing their metadata bits
	// (all but the cookie) once, at its first frame, and counts the run
	// with one add; the run's other frames cost a compare each.
	var byType [4]uint64
	for lo, n := 0, m.frames.Len(); lo < n; {
		s := m.frames.Span(lo, n)
		for i := 0; i < len(s); {
			fi := s[i]
			j := i + 1
			if !fi.allocated() {
				if fi.w != 0 {
					d.Failf("memsys: non-zero metadata on unallocated frame")
					return
				}
				for j < len(s) && s[j].w == 0 {
					j++
				}
				i = j
				continue
			}
			if int(fi.blockOrder()) > MaxOrder {
				d.Failf("memsys: frame block order %d beyond MaxOrder", fi.blockOrder())
				return
			}
			if r := fi.owner(); r != 0 && int(r) >= len(m.owners) {
				d.Failf("memsys: frame owner ref %d beyond %d-entry table", r, len(m.owners))
				return
			}
			for j < len(s) && s[j].w>>fiCookieBits == fi.w>>fiCookieBits {
				j++
			}
			byType[fi.mtype()] += uint64(j - i)
			i = j
		}
		lo += len(s)
	}
	if byType != m.allocByType {
		d.Failf("memsys: per-type allocation counters %v do not match frame scan %v", m.allocByType, byType)
		return
	}
	if alloc := byType[0] + byType[1] + byType[2] + byType[3]; alloc+m.freePages != uint64(m.nframes) {
		d.Failf("memsys: %d allocated + %d free != %d frames", alloc, m.freePages, m.nframes)
	}
}
