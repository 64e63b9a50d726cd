package graph

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary graph container format ("GMG1"): a little-endian header
// followed by the raw CSR arrays. The format exists so generated
// datasets can be produced once by cmd/gengraph and reused across
// experiment runs.
//
//	magic    [4]byte  "GMG1"
//	flags    uint32   bit0: weighted
//	n        uint64   vertices
//	m        uint64   edges
//	offsets  (n+1) × uint64
//	neighbors m × uint32
//	weights  m × uint32  (only if weighted)
var magic = [4]byte{'G', 'M', 'G', '1'}

const flagWeighted = 1

// Write serializes g to w.
func Write(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	var flags uint32
	if g.Weighted() {
		flags |= flagWeighted
	}
	if err := binary.Write(bw, binary.LittleEndian, flags); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(g.N)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(g.NumEdges())); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, g.Offsets); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, g.Neighbors); err != nil {
		return err
	}
	if g.Weighted() {
		if err := binary.Write(bw, binary.LittleEndian, g.Weights); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read deserializes a graph written by Write and validates it.
func Read(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("graph: reading magic: %w", err)
	}
	if m != magic {
		return nil, errors.New("graph: bad magic (not a GMG1 file)")
	}
	var hdr struct {
		Flags    uint32
		N, Edges uint64
	}
	if err := binary.Read(br, binary.LittleEndian, &hdr); err != nil {
		return nil, fmt.Errorf("graph: reading header: %w", err)
	}
	n, edges := hdr.N, hdr.Edges
	// Vertex IDs are uint32, so n is at most 2^32.
	if n == 0 || n > 1<<32 || edges > 1<<33 {
		return nil, fmt.Errorf("graph: implausible header n=%d m=%d", n, edges)
	}
	g := &Graph{N: int(n)}
	var err error
	if g.Offsets, err = readArray[uint64](br, n+1, "offsets"); err != nil {
		return nil, err
	}
	if g.Neighbors, err = readArray[uint32](br, edges, "neighbors"); err != nil {
		return nil, err
	}
	if hdr.Flags&flagWeighted != 0 {
		if g.Weights, err = readArray[uint32](br, edges, "weights"); err != nil {
			return nil, err
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// readArray reads n little-endian values a chunk at a time into a
// slice that grows as their bytes arrive, so a header that claims more
// than the input holds fails after allocating about the input's size.
func readArray[T uint32 | uint64](r io.Reader, n uint64, name string) ([]T, error) {
	const chunk = 1 << 16 // values per read
	s := make([]T, 0, min(n, chunk))
	for uint64(len(s)) < n {
		k := int(min(n-uint64(len(s)), chunk))
		if len(s)+k > cap(s) {
			s = append(make([]T, 0, min(n, 2*uint64(len(s))+chunk)), s...)
		}
		if err := binary.Read(r, binary.LittleEndian, s[len(s):len(s)+k]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF // the header promised these bytes
			}
			return nil, fmt.Errorf("graph: reading %s: %w", name, err)
		}
		s = s[:len(s)+k]
	}
	return s, nil
}
