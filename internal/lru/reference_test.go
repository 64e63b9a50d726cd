package lru

// The parallel-array set-associative array as it stood before the set
// blocks: tags and 32-bit LRU stamps in two arrays, early-exit probes,
// and an insert whose victim is the last invalid way, else the lowest
// stamp. Kept verbatim, apart from insert reporting a hit, as the
// oracle the differential test and FuzzSetsMatchReference hold the
// recency lists to.

// refSets is a generic set-associative tag array with per-set LRU.
type refSets struct {
	setsMask uint64
	ways     int
	tags     []uint64 // sets × ways; 0 means invalid (tags are shifted +1)
	stamp    []uint32 // LRU stamps parallel to tags
	clock    uint32
}

func newRefSets(sets, ways int) *refSets {
	if sets == 0 {
		return &refSets{}
	}
	return &refSets{
		setsMask: uint64(sets - 1),
		ways:     ways,
		tags:     make([]uint64, sets*ways),
		stamp:    make([]uint32, sets*ways),
	}
}

// lookup probes for key; on hit it refreshes LRU and returns true.
func (s *refSets) lookup(key uint64) bool {
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
func (s *refSets) repeatHit(key, n uint64) bool {
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

// insert fills key, evicting the LRU way of its set if necessary, and
// reports whether key was already resident.
func (s *refSets) insert(key uint64) bool {
	if s.ways == 0 {
		return false
	}
	tag := key + 1
	base := int(key&s.setsMask) * s.ways
	victim, oldest := base, s.stamp[base]
	for w := 0; w < s.ways; w++ {
		i := base + w
		if s.tags[i] == tag {
			s.clock++
			s.stamp[i] = s.clock
			return true
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
	return false
}

// invalidate removes key if present.
func (s *refSets) invalidate(key uint64) {
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
func (s *refSets) reset() {
	for i := range s.tags {
		s.tags[i] = 0
		s.stamp[i] = 0
	}
	s.clock = 0
}
