package tlb

import "graphmem/internal/check"

// The parallel-array setAssoc as it stood before the set blocks: tags
// and 32-bit LRU stamps in two arrays, early-exit probes, and an insert
// whose victim is the last invalid way, else the lowest stamp. Kept
// verbatim as the oracle the differential test and
// FuzzSetAssocMatchesReference hold the block layout to.

// refSetAssoc is a generic set-associative tag array with per-set LRU.
type refSetAssoc struct {
	setsMask uint64
	ways     int
	tags     []uint64 // sets × ways; 0 means invalid (tags are shifted +1)
	stamp    []uint32 // LRU stamps parallel to tags
	clock    uint32
}

func newRefSetAssoc(c SetConfig) *refSetAssoc {
	sets := c.sets()
	if sets == 0 {
		return &refSetAssoc{}
	}
	if sets&(sets-1) != 0 {
		panic(check.Failf("tlb: set count %d not a power of two", sets))
	}
	return &refSetAssoc{
		setsMask: uint64(sets - 1),
		ways:     c.Ways,
		tags:     make([]uint64, sets*c.Ways),
		stamp:    make([]uint32, sets*c.Ways),
	}
}

// lookup probes for key; on hit it refreshes LRU and returns true.
func (s *refSetAssoc) lookup(key uint64) bool {
	if s.ways == 0 {
		return false
	}
	tag := key + 1
	base := int(key&s.setsMask) * s.ways
	for w := 0; w < s.ways; w++ {
		if s.tags[base+w] == tag {
			s.clock++
			s.stamp[base+w] = s.clock
			return true
		}
	}
	return false
}

// repeatHit refreshes key's LRU state as n consecutive hitting lookups
// would: each hit advances the set's clock by one and leaves the entry's
// stamp at the new clock, so n hits in a row net to clock += n with the
// stamp landing on the final value and no other way touched. Returns
// false when the entry is absent (the caller's residency guarantee was
// broken).
func (s *refSetAssoc) repeatHit(key, n uint64) bool {
	if s.ways == 0 {
		return false
	}
	tag := key + 1
	base := int(key&s.setsMask) * s.ways
	for w := 0; w < s.ways; w++ {
		if s.tags[base+w] == tag {
			s.clock += uint32(n)
			s.stamp[base+w] = s.clock
			return true
		}
	}
	return false
}

// insert fills key, evicting the LRU way of its set if necessary.
func (s *refSetAssoc) insert(key uint64) {
	if s.ways == 0 {
		return
	}
	tag := key + 1
	base := int(key&s.setsMask) * s.ways
	victim, oldest := base, s.stamp[base]
	for w := 0; w < s.ways; w++ {
		i := base + w
		if s.tags[i] == tag {
			s.clock++
			s.stamp[i] = s.clock
			return
		}
		if s.tags[i] == 0 {
			victim, oldest = i, 0
			// Prefer an invalid way but keep scanning for a tag match.
			continue
		}
		if s.stamp[i] < oldest {
			victim, oldest = i, s.stamp[i]
		}
	}
	s.clock++
	s.tags[victim] = tag
	s.stamp[victim] = s.clock
}

// invalidate removes key if present.
func (s *refSetAssoc) invalidate(key uint64) {
	if s.ways == 0 {
		return
	}
	tag := key + 1
	base := int(key&s.setsMask) * s.ways
	for w := 0; w < s.ways; w++ {
		if s.tags[base+w] == tag {
			s.tags[base+w] = 0
			s.stamp[base+w] = 0
		}
	}
}

// reset clears all entries.
func (s *refSetAssoc) reset() {
	for i := range s.tags {
		s.tags[i] = 0
		s.stamp[i] = 0
	}
	s.clock = 0
}
