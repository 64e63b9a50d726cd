package ckpt

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// pagedOf returns a Paged array holding vals.
func pagedOf(vals []uint32) Paged[uint32] {
	p := NewPaged[uint32](len(vals))
	for i, v := range vals {
		p.Own(i)
		p.Mut(i, i+1)[0] = v
	}
	return p
}

// contents reads p back through page-wise spans.
func contents(p *Paged[uint32]) []uint32 {
	var out []uint32
	for lo := 0; lo < p.Len(); {
		s := p.Span(lo, p.Len())
		out = append(out, s...)
		lo += len(s)
	}
	return out
}

func seq(n int) []uint32 {
	vals := make([]uint32, n)
	for i := range vals {
		vals[i] = uint32(i*7 + 1)
	}
	return vals
}

// TestPagedGeometry: spans stop at page boundaries, the last page is
// short, and At agrees with the spans.
func TestPagedGeometry(t *testing.T) {
	n := 2*PageLen + 5
	vals := seq(n)
	p := pagedOf(vals)
	if p.Len() != n || len(p.pages) != 3 || len(p.pages[2].elems) != 5 {
		t.Fatalf("%d elements in %d pages (last %d), want %d in 3 (last 5)",
			p.Len(), len(p.pages), len(p.pages[2].elems), n)
	}
	if s := p.Span(PageLen-2, n); len(s) != 2 {
		t.Fatalf("span across a page boundary has %d elements, want 2", len(s))
	}
	if !slices.Equal(contents(&p), vals) {
		t.Fatal("page-wise read differs from the written values")
	}
	for _, i := range []int{0, PageLen - 1, PageLen, n - 1} {
		if p.At(i) != vals[i] {
			t.Fatalf("At(%d) = %d, want %d", i, p.At(i), vals[i])
		}
	}
}

// TestPagedCloneCopiesOnWrite: a clone shares every page, a write on
// either side copies only the page it claims, and neither side sees the
// other's writes.
func TestPagedCloneCopiesOnWrite(t *testing.T) {
	vals := seq(3 * PageLen)
	orig := pagedOf(vals)
	c := orig
	Pages(Cloner(), &c)
	for k := range c.pages {
		if &c.pages[k].elems[0] != &orig.pages[k].elems[0] {
			t.Fatalf("clone copied page %d", k)
		}
	}
	c.Own(PageLen + 3)
	c.Mut(PageLen+3, PageLen+5)[1] = 99
	if &c.pages[1].elems[0] == &orig.pages[1].elems[0] {
		t.Fatal("the clone wrote the shared page in place")
	}
	if &c.pages[0].elems[0] != &orig.pages[0].elems[0] || &c.pages[2].elems[0] != &orig.pages[2].elems[0] {
		t.Fatal("a write copied pages it did not claim")
	}
	orig.Own(2)
	orig.Mut(2, 3)[0] = 42
	if &c.pages[0].elems[0] == &orig.pages[0].elems[0] {
		t.Fatal("the original wrote a page its clone shares in place")
	}
	want := slices.Clone(vals)
	want[PageLen+4] = 99
	if !slices.Equal(contents(&c), want) {
		t.Fatal("clone contents wrong after writes on both sides")
	}
	want = slices.Clone(vals)
	want[2] = 42
	if !slices.Equal(contents(&orig), want) {
		t.Fatal("original contents wrong after writes on both sides")
	}
	// A page the clone owns is written in place from then on.
	before := &c.pages[1].elems[0]
	c.Own(PageLen)
	c.Mut(PageLen, PageLen+1)[0] = 7
	if &c.pages[1].elems[0] != before {
		t.Fatal("a private page was copied again")
	}
}

// TestPagedMutRefusesSharedPage: writing a page nobody claimed panics
// rather than reaching the other directory.
func TestPagedMutRefusesSharedPage(t *testing.T) {
	orig := pagedOf(seq(PageLen + 1))
	c := orig
	Pages(Cloner(), &c)
	defer func() {
		if recover() == nil {
			t.Fatal("Mut on an unclaimed shared page did not panic")
		}
		if orig.At(PageLen) != seq(PageLen + 1)[PageLen] {
			t.Fatal("the refused write reached the original")
		}
	}()
	c.Mut(PageLen, PageLen+1)[0] = 1
}

// TestPagedDroppedCloneStaysShared: pages a dropped clone shared are
// still copied on the original's next write.
func TestPagedDroppedCloneStaysShared(t *testing.T) {
	orig := pagedOf(seq(PageLen))
	c := orig
	Pages(Cloner(), &c)
	shared := &c.pages[0].elems[0]
	c = Paged[uint32]{}
	orig.Own(0)
	if &orig.pages[0].elems[0] == shared {
		t.Fatal("the original wrote in place a page a dropped clone still holds")
	}
}

// TestPagedConcurrentClones: goroutines clone one array at once and
// each writes its clone; the source and every clone keep their own
// contents (go test -race checks the flag protocol).
func TestPagedConcurrentClones(t *testing.T) {
	vals := seq(2*PageLen + 9)
	src := pagedOf(vals)
	const workers = 8
	clones := make([]Paged[uint32], workers)
	var wg sync.WaitGroup
	for g := range clones {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := src
			Pages(Cloner(), &c)
			for i := g; i < c.Len(); i += PageLen / 2 {
				c.Own(i)
				c.Mut(i, i+1)[0] = uint32(1000 + g)
			}
			clones[g] = c
		}()
	}
	wg.Wait()
	if !slices.Equal(contents(&src), vals) {
		t.Fatal("concurrent clones changed the source")
	}
	for g := range clones {
		want := slices.Clone(vals)
		for i := g; i < len(want); i += PageLen / 2 {
			want[i] = uint32(1000 + g)
		}
		if !slices.Equal(contents(&clones[g]), want) {
			t.Fatalf("clone %d saw another clone's writes", g)
		}
	}
}

// TestPagesEncodesLikeSlice: the paged walk writes exactly the bytes the
// flat Slice walk writes for the same elements, and decodes them back.
func TestPagesEncodesLikeSlice(t *testing.T) {
	for _, n := range []int{0, 1, PageLen, 2*PageLen + 3} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			vals := seq(n)
			p := pagedOf(vals)
			flat := slices.Clone(vals)
			var paged, sliced bytes.Buffer
			if _, err := Save(&paged, "k", func(e *Encoder) { Pages(e.Walker(), &p) }); err != nil {
				t.Fatal(err)
			}
			if _, err := Save(&sliced, "k", func(e *Encoder) { Slice(e.Walker(), &flat) }); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(paged.Bytes(), sliced.Bytes()) {
				t.Fatal("paged encoding differs from the flat slice encoding")
			}
			d, err := Load(bytes.NewReader(paged.Bytes()), "k")
			if err != nil {
				t.Fatal(err)
			}
			var back Paged[uint32]
			Pages(d.Walker(), &back)
			if err := d.Finish(); err != nil {
				t.Fatal(err)
			}
			if back.Len() != n || !slices.Equal(contents(&back), vals) {
				t.Fatal("decoded array differs from the encoded one")
			}
		})
	}
}

// TestPagesDecodeBoundsLength: a length larger than the payload left —
// absurd, or more elements than a truncated section holds — fails the
// decoder before anything is adopted.
func TestPagesDecodeBoundsLength(t *testing.T) {
	for _, tc := range []struct {
		name   string
		encode func(e *Encoder)
	}{
		{"absurd", func(e *Encoder) { e.U64(1 << 40); e.U32(1) }},
		{"truncated", func(e *Encoder) {
			p := pagedOf(seq(PageLen + 5))
			e.U64(uint64(p.Len()))
			e.Raw(sliceView(p.pages[0].elems))
			e.Raw(sliceView(p.pages[1].elems[:1]))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if _, err := Save(&buf, "k", tc.encode); err != nil {
				t.Fatal(err)
			}
			d, err := Load(&buf, "k")
			if err != nil {
				t.Fatal(err)
			}
			var p Paged[uint32]
			Pages(d.Walker(), &p)
			if d.Err() == nil || !strings.Contains(d.Err().Error(), "exceeds bound") {
				t.Fatalf("oversized length: err %v", d.Err())
			}
			if p.Len() != 0 {
				t.Fatalf("failed decode left %d elements", p.Len())
			}
		})
	}
}

// TestPagesDecodeAdoptsPayload: decode makes the payload's bytes the
// pages, without a copy — even when they are misaligned for the element
// type, as they are here behind one byte — and the pages are private:
// claiming and writing one writes the payload in place, and the array
// re-encodes to the bytes it was decoded from.
func TestPagesDecodeAdoptsPayload(t *testing.T) {
	vals := make([]uint64, 2*PageLen+3)
	for i := range vals {
		vals[i] = uint64(i)*0x9E3779B97F4A7C15 + 1
	}
	src := NewPaged[uint64](len(vals))
	for i, v := range vals {
		src.Mut(i, i+1)[0] = v
	}
	var buf bytes.Buffer
	if _, err := Save(&buf, "k", func(e *Encoder) { e.U8(7); Pages(e.Walker(), &src) }); err != nil {
		t.Fatal(err)
	}
	image := bytes.Clone(buf.Bytes())
	d, err := Load(&buf, "k")
	if err != nil {
		t.Fatal(err)
	}
	d.U8()
	var p Paged[uint64]
	Pages(d.Walker(), &p)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	lo := uintptr(unsafe.Pointer(&d.buf[0]))
	hi := lo + uintptr(len(d.buf))
	for k := range p.pages {
		pg := &p.pages[k]
		at := uintptr(unsafe.Pointer(&pg.elems[0]))
		if at < lo || at >= hi || pg.shared != 0 {
			t.Fatalf("page %d is a copy or starts shared", k)
		}
	}
	if uintptr(unsafe.Pointer(&p.pages[0].elems[0]))%8 == 0 {
		t.Fatal("the payload layout no longer misaligns the words; the test lost its case")
	}
	for i, v := range vals {
		if p.At(i) != v {
			t.Fatalf("element %d = %#x, want %#x", i, p.At(i), v)
		}
	}
	var again bytes.Buffer
	if _, err := Save(&again, "k", func(e *Encoder) { e.U8(7); Pages(e.Walker(), &p) }); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), image) {
		t.Fatal("the adopted array re-encodes differently")
	}
	before := &p.pages[1].elems[0]
	p.Own(PageLen + 1)
	p.Mut(PageLen+1, PageLen+2)[0] = 42
	if &p.pages[1].elems[0] != before || p.At(PageLen+1) != 42 {
		t.Fatal("writing a decoded page copied it")
	}
	c := p
	Pages(Cloner(), &c)
	c.Own(0)
	c.Mut(0, 1)[0] = 99
	if p.At(0) != vals[0] || c.At(0) != 99 {
		t.Fatal("a clone of a decoded array and the array saw each other's writes")
	}
}
