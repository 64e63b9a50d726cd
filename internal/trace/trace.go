// Package trace captures and analyzes memory access traces from the
// simulator. A trace is the raw material behind every claim in the
// paper: the reuse-distance profile of property-array accesses at page
// granularity explains the TLB miss rates of Fig. 3, and the page-size
// dependence of those distances explains why huge pages help.
//
// The package provides a compact binary trace format (writer/reader)
// and an exact LRU reuse-distance analysis (Mattson's stack algorithm
// implemented with a Fenwick tree, O(n log n)) from which miss rates of
// arbitrarily-sized fully-associative TLBs can be read off directly:
// a fully-associative LRU structure of S entries misses exactly the
// accesses whose reuse distance exceeds S.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Event is one recorded memory access.
type Event struct {
	VA  uint64
	Tag uint8 // client label, e.g. the array's StatsTag
}

var traceMagic = [4]byte{'G', 'M', 'T', '1'}

// Writer streams events to an io.Writer in GMT1 format.
type Writer struct {
	bw  *bufio.Writer
	n   uint64
	err error
}

// NewWriter writes the header and returns a streaming writer.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(traceMagic[:]); err != nil {
		return nil, err
	}
	return &Writer{bw: bw}, nil
}

// Trace records one access; it implements analytics.Tracer, the hook
// Image.RunTraced feeds. Errors are sticky and surfaced by Close.
func (w *Writer) Trace(va uint64, tag uint8) {
	if w.err != nil {
		return
	}
	var buf [9]byte
	binary.LittleEndian.PutUint64(buf[:8], va)
	buf[8] = tag
	if _, err := w.bw.Write(buf[:]); err != nil {
		w.err = err
		return
	}
	w.n++
}

// Events returns how many events were recorded.
func (w *Writer) Events() uint64 { return w.n }

// Close flushes and reports any deferred error.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	return w.bw.Flush()
}

// Reader iterates a GMT1 stream.
type Reader struct {
	br *bufio.Reader
}

// NewReader validates the header.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if m != traceMagic {
		return nil, errors.New("trace: bad magic (not a GMT1 file)")
	}
	return &Reader{br: br}, nil
}

// Next returns the next event or io.EOF.
func (r *Reader) Next() (Event, error) {
	var buf [9]byte
	if _, err := io.ReadFull(r.br, buf[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return Event{}, errors.New("trace: truncated event")
		}
		return Event{}, err
	}
	return Event{VA: binary.LittleEndian.Uint64(buf[:8]), Tag: buf[8]}, nil
}

// ForEach applies fn to every remaining event.
func (r *Reader) ForEach(fn func(Event)) error {
	for {
		e, err := r.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		fn(e)
	}
}

// --- reuse distance analysis -------------------------------------------

// fenwick is a binary indexed tree over access timestamps.
type fenwick struct {
	tree []int
}

func newFenwick(n int) *fenwick { return &fenwick{tree: make([]int, n+1)} }

func (f *fenwick) add(i, delta int) {
	for i++; i < len(f.tree); i += i & (-i) {
		f.tree[i] += delta
	}
}

// sum returns the prefix sum of [0, i].
func (f *fenwick) sum(i int) int {
	s := 0
	for i++; i > 0; i -= i & (-i) {
		s += f.tree[i]
	}
	return s
}

// Histogram is a reuse-distance distribution at some granularity. Bin i
// counts accesses with LRU stack distance exactly i (number of distinct
// other blocks touched since the previous access to the same block).
// Cold (first-touch) accesses are counted separately.
type Histogram struct {
	Cold     uint64
	Dist     []uint64 // truncated at MaxTracked; longer distances spill into Overflow
	Overflow uint64
	Total    uint64
}

// MaxTracked bounds the histogram's explicit bins; distances beyond it
// land in Overflow (they miss in any realistic TLB anyway).
const MaxTracked = 1 << 16

// MissRate returns the miss rate of a fully-associative LRU structure
// with the given capacity, per Mattson's inclusion property: an access
// hits iff its reuse distance is strictly less than the capacity.
func (h *Histogram) MissRate(capacity int) float64 {
	if h.Total == 0 {
		return 0
	}
	misses := h.Cold + h.Overflow
	if capacity > len(h.Dist) {
		capacity = len(h.Dist)
	}
	for d := capacity; d < len(h.Dist); d++ {
		misses += h.Dist[d]
	}
	return float64(misses) / float64(h.Total)
}

// DistinctBlocks returns how many unique blocks the trace touched.
func (h *Histogram) DistinctBlocks() uint64 { return h.Cold }

// ReuseDistances computes the page-granularity reuse-distance histogram
// of a VA stream, where each access is mapped to its block by dropping
// granularityShift low bits (12 for 4KB pages, 21 for 2MB pages). The
// filter, if non-zero-length, restricts the analysis to events whose
// Tag is in the set.
func ReuseDistances(events []Event, granularityShift uint, filter ...uint8) *Histogram {
	allowed := func(uint8) bool { return true }
	if len(filter) > 0 {
		set := make(map[uint8]bool, len(filter))
		for _, t := range filter {
			set[t] = true
		}
		allowed = func(t uint8) bool { return set[t] }
	}

	h := &Histogram{Dist: make([]uint64, MaxTracked)}
	lastSeen := make(map[uint64]int) // block → timestamp of last access
	ft := newFenwick(len(events) + 1)
	t := 0
	for _, e := range events {
		if !allowed(e.Tag) {
			continue
		}
		block := e.VA >> granularityShift
		if prev, seen := lastSeen[block]; seen {
			// Distance = number of distinct blocks accessed in
			// (prev, now) = live markers after prev.
			d := ft.sum(t) - ft.sum(prev)
			ft.add(prev, -1)
			if d < len(h.Dist) {
				h.Dist[d]++
			} else {
				h.Overflow++
			}
		} else {
			h.Cold++
		}
		ft.add(t, 1)
		lastSeen[block] = t
		t++
		h.Total++
	}
	return h
}
