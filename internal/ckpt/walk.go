package ckpt

import (
	"cmp"
	"maps"
	"slices"
	"unsafe"

	"graphmem/internal/check"
)

// Walker drives one pass over a state vector (DESIGN.md §5e). Every
// state-vector type lists its fields once, in an unexported state
// method, and the walker's op decides what that one list does:
//
//   - clone: the caller has shallow-copied the struct, so scalars and
//     fixed arrays are already copied (flat arrays move as one
//     memmove); the walk replaces every slice, map and owned pointer
//     with a private copy;
//   - encode: every field is written to an Encoder, big flat slices as
//     raw host memory;
//   - decode: every field is read back into a zero struct.
//
// Bindings (pointers into sibling subsystems) and scratch buffers are
// not walked: each type sets them in one bind step that fork and decode
// share. Decode-only validation runs after the walk, against Decoder.
type Walker struct {
	e *Encoder
	d *Decoder
}

// Cloner returns a clone-mode walker.
func Cloner() *Walker { return &Walker{} }

// Walker returns an encode-mode walker writing to e.
func (e *Encoder) Walker() *Walker { return &Walker{e: e} }

// Walker returns a decode-mode walker reading from d.
func (d *Decoder) Walker() *Walker { return &Walker{d: d} }

// Cloning reports whether w is a clone-mode walk.
func (w *Walker) Cloning() bool { return w.e == nil && w.d == nil }

// Encoder returns the encoder of an encode-mode walk, else nil.
func (w *Walker) Encoder() *Encoder { return w.e }

// Decoder returns the decoder of a decode-mode walk, else nil: types run
// their validation only when it is non-nil.
func (w *Walker) Decoder() *Decoder { return w.d }

// Failed reports whether an encode or decode walk has already failed;
// walks return early on it before dereferencing state a failed decode
// left zero.
func (w *Walker) Failed() bool {
	return (w.e != nil && w.e.err != nil) || (w.d != nil && w.d.err != nil)
}

// Failf aborts the walk: a save or a load fails with the message, and a
// clone panics, since state that cannot be copied is a simulator bug.
func (w *Walker) Failf(format string, args ...any) {
	switch {
	case w.e != nil:
		w.e.Failf(format, args...)
	case w.d != nil:
		w.d.Failf(format, args...)
	default:
		panic(check.Failf(format, args...))
	}
}

// scalar walks one scalar through the Encoder or Decoder method pair.
func scalar[T any](w *Walker, p *T, enc func(*Encoder, T), dec func(*Decoder) T) {
	switch {
	case w.e != nil:
		enc(w.e, *p)
	case w.d != nil:
		*p = dec(w.d)
	}
}

// U64 walks a uint64.
func (w *Walker) U64(p *uint64) { scalar(w, p, (*Encoder).U64, (*Decoder).U64) }

// U32 walks a uint32.
func (w *Walker) U32(p *uint32) { scalar(w, p, (*Encoder).U32, (*Decoder).U32) }

// Int walks an int as its 64-bit two's complement.
func (w *Walker) Int(p *int) { scalar(w, p, (*Encoder).Int, (*Decoder).Int) }

// Bool walks a bool; decode rejects bytes other than 0 and 1.
func (w *Walker) Bool(p *bool) { scalar(w, p, (*Encoder).Bool, (*Decoder).Bool) }

// String walks a length-prefixed string.
func (w *Walker) String(p *string) { scalar(w, p, (*Encoder).String, (*Decoder).String) }

// Len walks a count; decode rejects values above max, so a corrupt
// count can never size an allocation.
func (w *Walker) Len(p *int, max int) {
	switch {
	case w.e != nil:
		w.e.U64(uint64(*p))
	case w.d != nil:
		*p = w.d.Len(max)
	}
}

// Integer is the set of typed scalars Num walks.
type Integer interface {
	~int8 | ~int16 | ~int32 | ~int64 | ~int |
		~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uint
}

// Num walks a typed integer (memsys.Frame, oskernel.THPMode, ...) at its
// own width.
func Num[T Integer](w *Walker, p *T) { Fixed(w, p) }

// Fixed walks a fixed-size pointer-free value — an array such as the
// [512]uint64 heat counters, or an all-scalar struct such as a stats
// block or the cost model — as raw host memory. T must hold no pointers
// and no padding; simlint SL013 checks every instantiation. Clone has
// nothing to do: the caller's shallow copy already copied the value.
func Fixed[T any](w *Walker, p *T) {
	switch {
	case w.e != nil:
		w.e.Raw(view(p))
	case w.d != nil:
		w.d.Raw(view(p))
	}
}

// Slice walks a flat slice of pointer-free, padding-free elements: clone
// copies it with one memmove, encode writes its length and raw memory,
// and decode reads them back, bounding the length by the payload left.
func Slice[T any](w *Walker, p *[]T) {
	switch {
	case w.e != nil:
		encodeSlice(w.e, *p)
	case w.d != nil:
		*p = decodeSlice[T](w.d)
	default:
		*p = append([]T(nil), (*p)...)
	}
}

// Ptr walks the sub-object *p owns: clone points *p at a shallow copy,
// decode at a fresh zero T, and then every op walks it with state.
func Ptr[T any](w *Walker, p **T, state func(*T, *Walker)) {
	switch {
	case w.d != nil:
		*p = new(T)
	case w.e == nil:
		c := **p
		*p = &c
	}
	state(*p, w)
}

// Each walks a count-prefixed slice of elements that list their own
// fields (decode bounds the count by max): clone copies the slice and
// decode allocates zero elements before state walks each one. Like
// Slice, both leave an empty slice nil.
func Each[T any](w *Walker, p *[]T, max int, state func(*T, *Walker)) {
	n := len(*p)
	w.Len(&n, max)
	switch {
	case w.d != nil && n > 0:
		*p = make([]T, n)
	case w.d != nil:
		*p = nil
	case w.e == nil:
		*p = append([]T(nil), (*p)...)
	}
	for i := range *p {
		if w.Failed() {
			return
		}
		state(&(*p)[i], w)
	}
}

// Sparse walks a directory of nil-able owned pointers in place; its
// length is already agreed (a fixed array, or a slice the caller sized)
// and the directory itself already private to this walk. Clone replaces
// every entry with a walked shallow copy, encode writes the populated
// indices with their entries, and decode reads them back — strictly
// increasing and in range, else it fails "<what> index N out of order
// or range" — and materializes each entry.
func Sparse[T any](w *Walker, dir []*T, state func(*T, *Walker), what string) {
	switch {
	case w.e != nil:
		n := 0
		for _, x := range dir {
			if x != nil {
				n++
			}
		}
		w.e.Int(n)
		for i, x := range dir {
			if x != nil {
				w.e.Int(i)
				state(x, w)
			}
		}
	case w.d != nil:
		n := w.d.Len(len(dir))
		prev := -1
		for k := 0; k < n; k++ {
			i := w.d.Int()
			if i <= prev || i >= len(dir) {
				w.d.Failf("%s index %d out of order or range", what, i)
				return
			}
			prev = i
			dir[i] = new(T)
			state(dir[i], w)
		}
	default:
		for i, x := range dir {
			if x != nil {
				c := *x
				dir[i] = &c
				state(dir[i], w)
			}
		}
	}
}

// Map walks a map of pointer-free keys and values in ascending key
// order: encode writes the sorted keys and then their values as two raw
// slices (zero-size values are not written), decode requires strictly
// increasing keys, else it fails "<what> keys out of order", and clone
// copies the map.
func Map[K cmp.Ordered, V any](w *Walker, p *map[K]V, what string) {
	var zero V
	hasVals := unsafe.Sizeof(zero) != 0
	switch {
	case w.e != nil:
		keys := make([]K, 0, len(*p))
		for k := range *p {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		encodeSlice(w.e, keys)
		if hasVals {
			vals := make([]V, len(keys))
			for i, k := range keys {
				vals[i] = (*p)[k]
			}
			encodeSlice(w.e, vals)
		}
	case w.d != nil:
		keys := decodeSlice[K](w.d)
		vals := make([]V, len(keys))
		if hasVals {
			vals = decodeSlice[V](w.d)
		}
		m := make(map[K]V, len(keys))
		*p = m
		if w.d.err != nil {
			return
		}
		if len(vals) != len(keys) {
			w.d.Failf("%s has %d keys but %d values", what, len(keys), len(vals))
			return
		}
		for i, k := range keys {
			if i > 0 && k <= keys[i-1] {
				w.d.Failf("%s keys out of order", what)
				return
			}
			m[k] = vals[i]
		}
	default:
		*p = maps.Clone(*p)
	}
}
