package ckpt

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"graphmem/internal/check"
)

// node exercises every walk helper: scalars, a typed integer, a fixed
// array, a flat slice, an owned pointer, an element slice, a sparse
// directory and a sorted map.
type node struct {
	n     uint64
	id    uint32
	k     int
	on    bool
	name  string
	mode  uint8
	fixed [4]uint16
	flat  []uint32
	child *node
	kids  []node
	dir   [4]*node
	m     map[uint64]uint32
}

func (x *node) state(w *Walker) {
	w.U64(&x.n)
	w.U32(&x.id)
	w.Int(&x.k)
	w.Bool(&x.on)
	w.String(&x.name)
	Num(w, &x.mode)
	Fixed(w, &x.fixed)
	Slice(w, &x.flat)
	hasChild := x.child != nil
	w.Bool(&hasChild)
	if hasChild {
		Ptr(w, &x.child, (*node).state)
	}
	Each(w, &x.kids, 8, (*node).state)
	Sparse(w, x.dir[:], (*node).state, "dir")
	Map(w, &x.m, "m")
}

func leaf(n uint64) *node {
	return &node{n: n, name: "leaf", flat: []uint32{uint32(n)}, m: map[uint64]uint32{n: 1}}
}

func sampleNode() *node {
	x := leaf(1)
	x.id, x.k, x.on, x.mode = 7, -3, true, 2
	x.fixed = [4]uint16{1, 2, 3, 4}
	x.child = leaf(2)
	x.kids = []node{*leaf(3), *leaf(4)}
	x.dir[1], x.dir[3] = leaf(5), leaf(6)
	x.m = map[uint64]uint32{9: 90, 3: 30, 5: 50}
	return x
}

// TestWalkerClone: a clone-mode walk over a shallow copy yields an equal
// value that shares no mutable memory with the original.
func TestWalkerClone(t *testing.T) {
	x := sampleNode()
	c := x
	Ptr(Cloner(), &c, (*node).state)
	if c == x || !reflect.DeepEqual(c, x) {
		t.Fatal("clone is not an equal copy")
	}
	c.flat[0]++
	c.child.n++
	c.kids[0].flat[0]++
	c.dir[3].m[6]++
	c.m[9]++
	if !reflect.DeepEqual(x, sampleNode()) {
		t.Fatal("mutating the clone changed the original")
	}
}

// TestWalkerRoundTrip: decode reads back exactly what encode wrote, and
// re-encoding the decoded value reproduces the same bytes.
func TestWalkerRoundTrip(t *testing.T) {
	x := sampleNode()
	save := func(x *node) []byte {
		var buf bytes.Buffer
		if _, err := Save(&buf, "k", func(e *Encoder) { x.state(e.Walker()) }); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	img := save(x)
	d, err := Load(bytes.NewReader(img), "k")
	if err != nil {
		t.Fatal(err)
	}
	var y *node
	Ptr(d.Walker(), &y, (*node).state)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(x, y) {
		t.Fatalf("decoded %+v, want %+v", y, x)
	}
	if !bytes.Equal(save(y), img) {
		t.Fatal("re-encoding the decoded value changed the bytes")
	}
}

// TestWalkerRejectsNonCanonical: decode refuses directory indices and map
// keys that are out of order, the encodings a canonical walk never
// writes.
func TestWalkerRejectsNonCanonical(t *testing.T) {
	load := func(encode func(*Encoder)) *Decoder {
		var buf bytes.Buffer
		if _, err := Save(&buf, "k", encode); err != nil {
			t.Fatal(err)
		}
		d, err := Load(&buf, "k")
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	d := load(func(e *Encoder) { e.Int(1); e.Int(4) })
	var dir [4]*node
	Sparse(d.Walker(), dir[:], (*node).state, "dir")
	if d.Err() == nil || !strings.Contains(d.Err().Error(), "dir index") {
		t.Fatalf("out-of-range directory index: err %v", d.Err())
	}
	d = load(func(e *Encoder) {
		encodeSlice(e, []uint64{5, 3})
		encodeSlice(e, []uint32{1, 2})
	})
	var m map[uint64]uint32
	Map(d.Walker(), &m, "m")
	if d.Err() == nil || !strings.Contains(d.Err().Error(), "m keys out of order") {
		t.Fatalf("unsorted map keys: err %v", d.Err())
	}
}

// TestWalkerCloneFailPanics: a state vector a clone cannot copy is a
// simulator bug, raised as a check.Failure.
func TestWalkerCloneFailPanics(t *testing.T) {
	defer func() {
		if r := recover(); !check.IsFailure(r) {
			t.Fatalf("clone Failf recovered %v, want a check.Failure", r)
		}
	}()
	Cloner().Failf("live %s", "ticker")
}
