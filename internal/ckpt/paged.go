package ckpt

import (
	"slices"
	"sync/atomic"
	"unsafe"
)

// PageLen is the number of elements in one page of a Paged array.
const PageLen = 1 << pageShift

const pageShift = 12

// Paged is a flat array of pointer-free, padding-free T stored as pages of
// PageLen elements that forks share copy-on-write (DESIGN.md §5b). A clone
// copies only the page directory and marks every page shared; a page is
// copied when its first writer claims it, so a fork of a big array costs
// its directory, and a fork that never writes costs nothing more.
//
// Reads go through At and Span. A write claims the page first with Own,
// which copies the page if another directory may reach it, and then
// writes it through Mut. A Span is a read-only view: it stays valid until
// the next Own on the same page.
//
// Every directory entry carries a shared flag. A clone sets it in the
// source's entries and in its own, and only Own's private copy clears it:
// a page is written in place only while its entry says no other directory
// can reach it. That holds when several goroutines clone one array at
// once (the source's flags are set atomically, so concurrent clones do
// not race), when the original keeps running after a clone, and after a
// clone is dropped (its pages stay shared, which can only cause an extra
// copy). The array's owner reads its flags plainly, which keeps Own's
// check and Mut inlinable (an atomic load costs the inliner a call); that
// is race-free because nothing clones an array while its owner writes
// it, so every clone is ordered before the owner's next access.
type Paged[T any] struct {
	pages []page[T]
	n     int
}

// page is one directory entry: the page's elements, and 1 while another
// directory may reach them.
type page[T any] struct {
	elems  []T
	shared uint32
}

// NewPaged returns an array of n zero elements. The pages start private
// and share one backing allocation.
func NewPaged[T any](n int) Paged[T] { return pagedOver(make([]T, n)) }

// pagedOver returns an array whose private pages are consecutive
// PageLen-element windows of backing, each clipped so no write can reach
// past its page.
func pagedOver[T any](backing []T) Paged[T] {
	n := len(backing)
	p := Paged[T]{n: n, pages: make([]page[T], (n+PageLen-1)/PageLen)}
	for k := range p.pages {
		lo := k * PageLen
		hi := min(lo+PageLen, n)
		p.pages[k].elems = backing[lo:hi:hi]
	}
	return p
}

// Len returns the number of elements.
func (p *Paged[T]) Len() int { return p.n }

// At returns element i.
func (p *Paged[T]) At(i int) T {
	return p.pages[i>>pageShift].elems[i&(PageLen-1)]
}

// Span returns the part of [lo, hi) that lies in lo's page, for reading.
// A scan over [lo, hi) takes one span per page, advancing lo by the
// span's length.
func (p *Paged[T]) Span(lo, hi int) []T {
	s := p.pages[lo>>pageShift].elems
	off := lo &^ (PageLen - 1)
	return s[lo-off : min(hi-off, len(s))]
}

// Own makes the page holding element i private, copying it if another
// directory may reach it: the first write to a shared page.
func (p *Paged[T]) Own(i int) {
	if pg := &p.pages[i>>pageShift]; pg.shared != 0 {
		p.unshare(pg)
	}
}

// unshare gives pg a private copy of its elements, with capacity equal to
// its length so no write can reach past the page.
func (p *Paged[T]) unshare(pg *page[T]) {
	pg.elems = slices.Clip(slices.Clone(pg.elems))
	pg.shared = 0
}

// Mut returns [lo, hi) for writing. The range must lie in one page, and
// the page must be owned (Own): Mut slices no elements of a shared page,
// so writing one panics instead of reaching the other directories. Mut
// never copies, so it inlines into write paths.
func (p *Paged[T]) Mut(lo, hi int) []T {
	pg := &p.pages[lo>>pageShift]
	s := pg.elems
	if pg.shared != 0 {
		s = nil
	}
	off := lo &^ (PageLen - 1)
	return s[lo-off : hi-off]
}

// clone returns a copy of the directory with every page shared, and marks
// the source's entries shared too. It reads the source's flags and elems
// and sets its flags only atomically, and only where unset, so
// concurrent clones of one array neither race nor contend.
func (p *Paged[T]) clone() []page[T] {
	pages := make([]page[T], len(p.pages))
	for k := range p.pages {
		src := &p.pages[k]
		if atomic.LoadUint32(&src.shared) == 0 {
			atomic.StoreUint32(&src.shared, 1)
		}
		pages[k] = page[T]{elems: src.elems, shared: 1}
	}
	return pages
}

// Pages walks a Paged array of pointer-free, padding-free elements
// (simlint SL013 checks every instantiation): clone copies the page
// directory and shares the pages, encode writes the length and every
// page's raw memory (the bytes Slice writes for the flat array), and
// decode bounds the length by the payload left and adopts the payload's
// bytes as the pages, without a copy.
//
// The adopted pages start private, which is sound because the Decoder
// owns its buffer: only Load builds one, from a fresh read that nothing
// else references, so writing a decoded page in place reaches no other
// array and no caller's bytes. The views keep the whole payload alive as
// long as the array lives, and they may be misaligned for T, which is
// legal for pointer-free T (no element is accessed atomically).
func Pages[T any](w *Walker, p *Paged[T]) {
	switch {
	case w.e != nil:
		w.e.U64(uint64(p.n))
		for k := range p.pages {
			w.e.Raw(sliceView(p.pages[k].elems))
		}
	case w.d != nil:
		esz := int(unsafe.Sizeof(*new(T)))
		n := w.d.Len(w.d.Remaining() / esz)
		b := w.d.take(n * esz)
		if w.d.err != nil {
			*p = Paged[T]{}
			return
		}
		var elems []T
		if n > 0 {
			elems = unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
		}
		*p = pagedOver(elems)
	default:
		p.pages = p.clone()
	}
}
