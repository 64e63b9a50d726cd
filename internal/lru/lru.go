// Package lru holds the set-associative arrays of the cache and TLB
// models: the data cache's two levels and the TLB's six arrays (both
// L1 DTLB arrays, the STLB and the three page-walk caches) are each one
// Sets.
//
// Each set is its LRU stack: the tags (key+1) of its resident keys,
// most recently used first, then its empty slots (0). The order is the
// replacement state, so the least recently used key, or an empty slot,
// is always the set's last slot and no victim search is needed. The
// probes are small enough to inline into their callers.
package lru

import (
	"fmt"
	"slices"

	"graphmem/internal/ckpt"
)

// Sets is an array of sets × ways slots; a key's set is its low bits.
type Sets struct {
	setsMask uint64
	ways     int
	tags     []uint64 // sets × ways; set s holds tags[s*ways : (s+1)*ways]
}

// New returns an array of sets × ways empty slots. sets must be a power
// of two, or 0 for an array that holds nothing: its sets are empty, so
// its probes miss and its fills drop their key.
func New(sets, ways int) *Sets {
	if sets == 0 {
		return &Sets{}
	}
	return &Sets{setsMask: uint64(sets - 1), ways: ways, tags: make([]uint64, sets*ways)}
}

// Ways returns the associativity; it is 0 for an array that holds
// nothing.
func (s *Sets) Ways() int { return s.ways }

// Set returns the slots of key's set.
func (s *Sets) Set(key uint64) []uint64 {
	base := int(key&s.setsMask) * s.ways
	return s.tags[base : base+s.ways]
}

// Touch moves key to the front of its set, filling it if absent, and
// reports whether it was resident. One walk does the probe and the
// update: each entry it passes shifts down one slot, and it stops at
// key (a hit) or falls off the end of the set, dropping the LRU key or
// an empty slot (a miss).
func (s *Sets) Touch(key uint64) bool {
	tag := key + 1
	set := s.Set(key)
	prev := tag
	for w, t := range set {
		set[w] = prev
		if t == tag {
			return true
		}
		prev = t
	}
	return false
}

// Lookup reports whether key is resident; on a hit it moves key to the
// front of its set, and on a miss nothing moves.
func (s *Sets) Lookup(key uint64) bool {
	tag := key + 1
	set := s.Set(key)
	for w, t := range set {
		if t == tag {
			for ; w > 0; w-- {
				set[w] = set[w-1]
			}
			set[0] = tag
			return true
		}
	}
	return false
}

// IsMRU reports whether key is the most recently used key of its set.
// n hitting lookups of such a key leave its set as it is.
func (s *Sets) IsMRU(key uint64) bool {
	set := s.Set(key)
	return len(set) != 0 && set[0] == key+1
}

// Invalidate removes key if present, moving the older keys up one slot.
func (s *Sets) Invalidate(key uint64) {
	set := s.Set(key)
	for w, t := range set {
		if t == key+1 {
			copy(set[w:], set[w+1:])
			set[len(set)-1] = 0
			return
		}
	}
}

// Reset empties every set.
func (s *Sets) Reset() { clear(s.tags) }

// State walk (DESIGN.md §5e). The tag array is walked verbatim: each
// set's order is its LRU stack, which replacement decisions depend on,
// so a forked or loaded array replaces exactly as the original would
// have. The walk does not validate a decoded array: its owner knows the
// geometry and calls Check.

func (s *Sets) state(w *ckpt.Walker) {
	w.U64(&s.setsMask)
	w.Int(&s.ways)
	ckpt.Slice(w, &s.tags)
}

// Walk forks, encodes, or decodes the array *p owns.
func Walk(w *ckpt.Walker, p **Sets) { ckpt.Ptr(w, p, (*Sets).state) }

// Check reports the first way s differs from a well-formed array of
// sets × ways: its shape must be the one New(sets, ways) builds, and
// every set must be a recency list, its resident tags before its empty
// slots, distinct, and each belonging to that set.
func (s *Sets) Check(sets, ways int) error {
	mask := uint64(sets - 1)
	if sets == 0 {
		mask, ways = 0, 0
	}
	if s.setsMask != mask || s.ways != ways || len(s.tags) != sets*ways {
		return fmt.Errorf("shape (set mask %#x, %d ways, %d slots) is not %d sets × %d ways",
			s.setsMask, s.ways, len(s.tags), sets, ways)
	}
	for i := 0; i < sets; i++ {
		set := s.tags[i*ways : (i+1)*ways]
		for w, t := range set {
			switch {
			case t == 0:
			case w > 0 && set[w-1] == 0:
				return fmt.Errorf("set %d slot %d: tag %#x after an empty slot", i, w, t)
			case int((t-1)&mask) != i:
				return fmt.Errorf("set %d slot %d: tag %#x belongs to set %d", i, w, t, (t-1)&mask)
			case slices.Contains(set[:w], t):
				return fmt.Errorf("set %d: duplicate tag %#x", i, t)
			}
		}
	}
	return nil
}
