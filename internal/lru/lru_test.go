package lru

import (
	"cmp"
	"slices"
	"strings"
	"testing"
)

// setPair drives an array and the stamp-based oracle through the same
// operations and fails on the first divergence in any result or set
// order.
type setPair struct {
	t   testing.TB
	s   *Sets
	ref *refSets
	// Touches that fill a set with two or more invalid ways (the
	// oracle's last-invalid rule decides), and touches that fill a full
	// set (its lowest stamp does).
	fillsPastEmpty, evictions int
}

func newSetPair(t testing.TB, sets, ways int) *setPair {
	return &setPair{t: t, s: New(sets, ways), ref: newRefSets(sets, ways)}
}

// countRule classifies the fill a touch of key is about to make, from
// the oracle's state.
func (p *setPair) countRule(key uint64) {
	r := p.ref
	if r.ways == 0 {
		return
	}
	base := int(key&r.setsMask) * r.ways
	empty := 0
	for w := 0; w < r.ways; w++ {
		switch r.tags[base+w] {
		case key + 1:
			return
		case 0:
			empty++
		}
	}
	switch {
	case empty >= 2:
		p.fillsPastEmpty++
	case empty == 0:
		p.evictions++
	}
}

// check requires every set of the array to list exactly the oracle's
// valid tags of that set, most recent stamp first, then zeros.
func (p *setPair) check(op string, key uint64) {
	p.t.Helper()
	s, r := p.s, p.ref
	if len(s.tags) != len(r.tags) {
		p.t.Fatalf("after %s(%d): %d slots, reference %d", op, key, len(s.tags), len(r.tags))
	}
	for base := 0; base < len(s.tags); base += s.ways {
		want := recencyOrder(p.t, r.tags[base:base+s.ways], r.stamp[base:base+s.ways])
		if got := s.tags[base : base+s.ways]; !slices.Equal(got, want) {
			p.t.Fatalf("after %s(%d): set %d is %#x, reference order %#x", op, key, base/s.ways, got, want)
		}
	}
}

// refMRU reports whether key is the oracle's most recently used entry of
// its set.
func (p *setPair) refMRU(key uint64) bool {
	r := p.ref
	if r.ways == 0 {
		return false
	}
	base := int(key&r.setsMask) * r.ways
	return recencyOrder(p.t, r.tags[base:base+r.ways], r.stamp[base:base+r.ways])[0] == key+1
}

// recencyOrder returns a stamp-LRU set as a recency list: its valid
// tags by descending stamp, then zeros. Two valid tags with one stamp
// would leave the order undefined, so they fail the test.
func recencyOrder(t testing.TB, tags []uint64, stamps []uint32) []uint64 {
	t.Helper()
	var live []int
	for w, tag := range tags {
		if tag != 0 {
			live = append(live, w)
		}
	}
	slices.SortFunc(live, func(a, b int) int { return cmp.Compare(stamps[b], stamps[a]) })
	order := make([]uint64, len(tags))
	for i, w := range live {
		if i > 0 && stamps[w] == stamps[live[i-1]] {
			t.Fatalf("reference set %#x: two valid tags share stamp %d", tags, stamps[w])
		}
		order[i] = tags[w]
	}
	return order
}

// replay decodes data two bytes per operation: lookups, repeat hits,
// touches, invalidations and resets. The operation is the low three
// bits of the first byte; its other five bits and the second byte make
// a 13-bit key, taken modulo three times the array's capacity, so every
// geometry both fills sets past an empty slot and evicts. A repeat hit
// is legal only on its set's MRU entry, so it runs on the oracle only
// where IsMRU, which must agree with the oracle's stamps, allows it.
// Touches outnumber invalidations four to one, so sets fill while
// keeping holes for touches to fill; a reset needs all 13 key bits
// high, so most streams never empty the largest array. It stops after
// 4096 operations, so the oracle's clock stays far below 2^32, where
// its 32-bit stamps wrap.
func (p *setPair) replay(data []byte) {
	p.t.Helper()
	keys := uint64(3 * max(len(p.s.tags), 1))
	for ops := 0; len(data) >= 2 && ops < 4096; ops++ {
		op, arg := data[0], data[1]
		data = data[2:]
		bits := uint64(op>>3)<<8 | uint64(arg)
		key := bits % keys
		switch op % 8 {
		case 0, 1:
			if got, want := p.s.Lookup(key), p.ref.lookup(key); got != want {
				p.t.Fatalf("Lookup(%d) = %v, reference %v", key, got, want)
			}
			p.check("Lookup", key)
		case 2:
			mru := p.s.IsMRU(key)
			if want := p.refMRU(key); mru != want {
				p.t.Fatalf("IsMRU(%d) = %v, reference %v", key, mru, want)
			}
			if mru {
				p.ref.repeatHit(key, uint64(arg)+1)
				p.check("repeatHit", key)
			}
		case 3, 4, 5, 6:
			p.countRule(key)
			if got, want := p.s.Touch(key), p.ref.insert(key); got != want {
				p.t.Fatalf("Touch(%d) = %v, reference %v", key, got, want)
			}
			p.check("Touch", key)
		case 7:
			if bits >= 0x1FF0 {
				p.s.Reset()
				p.ref.reset()
				p.check("Reset", key)
				continue
			}
			p.s.Invalidate(key)
			p.ref.invalidate(key)
			p.check("Invalidate", key)
		}
	}
}

// pairGeometries are the geometries (sets × ways) the differential
// checks run on: the tiny cache hierarchy's 2-set 4-way L1 and 4-set
// 8-way LLC, Haswell's data caches scaled by 64 (a 1-set 8-way L1 and
// a 32-set 20-way LLC), and a zero-entry array.
var pairGeometries = [][2]int{{2, 4}, {4, 8}, {1, 8}, {32, 20}, {0, 0}}

// TestSetsMatchReference replays a long pseudo-random stream against
// the oracle on every geometry and requires it to have exercised both
// the oracle's last-invalid rule and its lowest-stamp eviction on every
// array that holds anything.
func TestSetsMatchReference(t *testing.T) {
	data := make([]byte, 8192)
	x := uint64(1)
	for i := range data {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		data[i] = byte(x >> 32)
	}
	for _, g := range pairGeometries {
		p := newSetPair(t, g[0], g[1])
		p.replay(data)
		if g[0] != 0 && (p.fillsPastEmpty == 0 || p.evictions == 0) {
			t.Fatalf("%d×%d: stream made %d fills past an invalid way and %d evictions; both rules must be exercised",
				g[0], g[1], p.fillsPastEmpty, p.evictions)
		}
	}
}

func FuzzSetsMatchReference(f *testing.F) {
	f.Add([]byte{3, 0, 3, 2, 3, 4, 3, 6, 7, 2, 7, 4, 3, 8, 0, 0, 2, 4, 3, 10, 7 | 31<<3, 255, 3, 2})
	f.Add([]byte{3, 1, 3, 3, 3, 5, 3, 7, 3, 9, 0, 1, 3, 11, 2, 11, 7, 9, 3, 1, 3 | 1<<3, 65})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, g := range pairGeometries {
			newSetPair(t, g[0], g[1]).replay(data)
		}
	})
}

// TestCheckRejectsMalformedSets plants each way a set can fail to be a
// recency list and requires Check to name it, and requires Check to
// reject an array whose shape is not the geometry it is checked
// against; a clean array and an empty zero-set array pass.
func TestCheckRejectsMalformedSets(t *testing.T) {
	// Set 0 of a 2-set 4-way array holds the even keys, whose tags are
	// odd.
	for _, c := range []struct {
		set0 []uint64
		want string // in the error; "" for a clean set
	}{
		{[]uint64{5, 1, 0, 0}, ""},
		{[]uint64{5, 0, 1, 0}, "set 0 slot 2: tag 0x1 after an empty slot"},
		{[]uint64{5, 5, 0, 0}, "set 0: duplicate tag 0x5"},
		{[]uint64{5, 2, 0, 0}, "set 0 slot 1: tag 0x2 belongs to set 1"},
	} {
		s := New(2, 4)
		copy(s.Set(0), c.set0)
		err := s.Check(2, 4)
		if c.want == "" && err != nil || c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
			t.Errorf("set 0 = %#x: Check = %v, want an error naming %q", c.set0, err, c.want)
		}
	}
	for _, c := range []struct {
		s          *Sets
		sets, ways int
		wantErr    bool
	}{
		{New(2, 4), 4, 4, true},
		{New(2, 4), 2, 8, true},
		{New(2, 4), 0, 4, true},
		{New(0, 4), 1, 4, true},
		{New(0, 4), 0, 4, false},
	} {
		if err := c.s.Check(c.sets, c.ways); (err != nil) != c.wantErr {
			t.Errorf("%d-slot array checked as %d×%d: Check = %v, want an error: %v",
				len(c.s.tags), c.sets, c.ways, err, c.wantErr)
		}
	}
}
