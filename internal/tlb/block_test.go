package tlb

import (
	"testing"

	"graphmem/internal/vm"
)

// setPair drives a set-block array and the parallel-array oracle
// through the same operations and fails on the first divergence in any
// result, tag, stamp or clock.
type setPair struct {
	t   testing.TB
	s   *setAssoc
	ref *refSetAssoc
	// Inserts into a set with two or more invalid ways (the last-invalid
	// rule decides), and inserts into a full set (the lowest stamp does).
	fillsPastEmpty, evictions int
}

func newSetPair(t testing.TB, c SetConfig) *setPair {
	return &setPair{t: t, s: newSetAssoc(c), ref: newRefSetAssoc(c)}
}

// countRule classifies the fill an insert of key is about to make, from
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

func (p *setPair) check(op string, key uint64) {
	p.t.Helper()
	s, r := p.s, p.ref
	if s.clock != uint64(r.clock) || len(s.block) != len(r.tags) {
		p.t.Fatalf("after %s(%d): clock %d (%d ways), reference clock %d (%d ways)",
			op, key, s.clock, len(s.block), r.clock, len(r.tags))
	}
	for i, e := range s.block {
		if e.tag != r.tags[i] || e.stamp != uint64(r.stamp[i]) {
			p.t.Fatalf("after %s(%d): way %d holds tag %#x stamp %d, reference tag %#x stamp %d",
				op, key, i, e.tag, e.stamp, r.tags[i], r.stamp[i])
		}
	}
}

// replay decodes data two bytes per operation over 24 keys, three times
// the capacity of the arrays it is used on: lookups, repeat hits,
// inserts, invalidations and resets. Inserts outnumber invalidations
// only two to one, so sets keep holes for inserts to fill. It stops
// after 4096 operations, so the clock stays far below 2^32, where the
// oracle's 32-bit stamps wrap.
func (p *setPair) replay(data []byte) {
	p.t.Helper()
	for ops := 0; len(data) >= 2 && ops < 4096; ops++ {
		op, arg := data[0], data[1]
		data = data[2:]
		key := uint64(arg % 24)
		switch op % 8 {
		case 0, 1:
			if got, want := p.s.lookup(key), p.ref.lookup(key); got != want {
				p.t.Fatalf("lookup(%d) = %v, reference %v", key, got, want)
			}
			p.check("lookup", key)
		case 2:
			n := uint64(op >> 3)
			if got, want := p.s.repeatHit(key, n), p.ref.repeatHit(key, n); got != want {
				p.t.Fatalf("repeatHit(%d, %d) = %v, reference %v", key, n, got, want)
			}
			p.check("repeatHit", key)
		case 3, 4, 5, 6:
			p.countRule(key)
			p.s.insert(key)
			p.ref.insert(key)
			p.check("insert", key)
		case 7:
			if arg >= 240 {
				p.s.reset()
				p.ref.reset()
				p.check("reset", key)
				continue
			}
			p.s.invalidate(key)
			p.ref.invalidate(key)
			p.check("invalidate", key)
		}
	}
}

// pairConfigs are the geometries the differential checks run on: a
// 2-set 4-way array, one fully associative set, and a zero-entry array.
var pairConfigs = []SetConfig{{Entries: 8, Ways: 4}, {Entries: 8, Ways: 8}, {}}

// TestSetAssocMatchesReference replays a long pseudo-random stream
// against the oracle and requires it to have exercised both the
// last-invalid rule and lowest-stamp eviction.
func TestSetAssocMatchesReference(t *testing.T) {
	data := make([]byte, 8000)
	x := uint64(1)
	for i := range data {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		data[i] = byte(x >> 32)
	}
	for _, c := range pairConfigs {
		p := newSetPair(t, c)
		p.replay(data)
		if c.Entries != 0 && (p.fillsPastEmpty == 0 || p.evictions == 0) {
			t.Fatalf("%+v: stream made %d fills past an invalid way and %d evictions; both rules must be exercised",
				c, p.fillsPastEmpty, p.evictions)
		}
	}
}

func FuzzSetAssocMatchesReference(f *testing.F) {
	f.Add([]byte{3, 0, 3, 2, 3, 4, 3, 6, 7, 2, 7, 4, 3, 8, 0, 0, 2 | 5<<3, 6, 3, 10})
	f.Add([]byte{3, 1, 3, 3, 3, 5, 3, 7, 3, 9, 0, 1, 3, 11, 7, 250, 3, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range pairConfigs {
			newSetPair(t, c).replay(data)
		}
	})
}

// TestLRUAcrossOldClockWrap starts the L1 4K array's clock just below
// 2^32, where 32-bit stamps used to wrap, fills one set, re-touches
// every way but the first, and requires the next fill to evict that
// untouched way: with a wrapped clock the re-touched entries looked
// oldest instead.
func TestLRUAcrossOldClockWrap(t *testing.T) {
	h := New(Haswell())
	s := h.l14k
	s.clock = 0xFFFFFFFD
	sets := s.setsMask + 1
	va := func(k int) uint64 { return uint64(k) * sets << 12 } // all in set 0
	for k := 0; k < s.ways; k++ {
		h.Fill(va(k), vm.Page4K)
	}
	for k := 1; k < s.ways; k++ {
		if !h.Lookup(va(k), vm.Page4K).L1Hit {
			t.Fatalf("re-touch of page %d missed the L1", k)
		}
	}
	if s.clock <= 1<<32 {
		t.Fatalf("clock %#x did not cross 2^32", s.clock)
	}
	h.Fill(va(s.ways), vm.Page4K)
	// The lookup misses the L1 and refills page 0 from the STLB,
	// evicting page 1, now the least recent.
	if h.Lookup(va(0), vm.Page4K).L1Hit {
		t.Fatal("untouched page 0 survived the fill; a recently used page was evicted")
	}
	for k := 2; k <= s.ways; k++ {
		if !h.Lookup(va(k), vm.Page4K).L1Hit {
			t.Fatalf("page %d was evicted out of LRU order", k)
		}
	}
}
