package graph

import (
	"bytes"
	"testing"
)

// FuzzRead hardens the GMG1 parser: arbitrary bytes must produce either
// a valid graph or an error — never a panic or runaway allocation.
func FuzzRead(f *testing.F) {
	// Seed with a valid file and some truncations of it.
	g, err := FromEdges(4, []Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2, Weight: 3}}, true)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("GMG1"))
	f.Add([]byte{})
	f.Add(hugeHeader())

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("Read returned an invalid graph: %v", err)
		}
	})
}

// FuzzRelabel hardens the permutation validator.
func FuzzRelabel(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{3, 3, 3, 3})
	f.Fuzz(func(t *testing.T, permBytes []byte) {
		g, err := FromEdges(4, []Edge{{Src: 0, Dst: 1}, {Src: 2, Dst: 3}}, false)
		if err != nil {
			t.Fatal(err)
		}
		perm := make([]uint32, len(permBytes))
		for i, b := range permBytes {
			perm[i] = uint32(b)
		}
		ng, err := g.Relabel(perm)
		if err != nil {
			return // rejected, fine
		}
		if err := ng.Validate(); err != nil {
			t.Fatalf("Relabel accepted bad perm and produced invalid graph: %v", err)
		}
	})
}
