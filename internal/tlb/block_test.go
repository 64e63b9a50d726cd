package tlb

import (
	"bytes"
	"cmp"
	"slices"
	"strings"
	"testing"

	"graphmem/internal/ckpt"
	"graphmem/internal/vm"
)

// setPair drives a recency-list array and the stamp-based oracle
// through the same operations and fails on the first divergence in any
// result or set order.
type setPair struct {
	t   testing.TB
	s   *setAssoc
	ref *refSetAssoc
	// Inserts into a set with two or more invalid ways (the oracle's
	// last-invalid rule decides), and inserts into a full set (its
	// lowest stamp does).
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

// replay decodes data two bytes per operation over 24 keys, three times
// the capacity of the arrays it is used on: lookups, repeat hits,
// inserts, invalidations and resets. A repeat hit is legal only on its
// set's MRU entry, so it runs on the oracle only where the array's
// isMRU, which must agree with the oracle's stamps, allows it. Inserts
// outnumber invalidations only two to one, so sets keep holes for
// inserts to fill. It stops after 4096 operations, so the oracle's
// clock stays far below 2^32, where its 32-bit stamps wrap.
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
			mru := p.s.isMRU(key)
			if want := p.refMRU(key); mru != want {
				p.t.Fatalf("isMRU(%d) = %v, reference %v", key, mru, want)
			}
			if mru {
				p.ref.repeatHit(key, n)
				p.check("repeatHit", key)
			}
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
// oracle's last-invalid rule and its lowest-stamp eviction.
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

// TestLRUAcrossOldClockWrap pins the scenario 32-bit LRU stamps once
// got wrong where they wrapped: fill one set of the L1 4K array,
// re-touch every page but the first, and the next fill must evict that
// untouched page. The set is its own recency list, with no clock to
// wrap, so the test reads the order directly.
func TestLRUAcrossOldClockWrap(t *testing.T) {
	h := New(Haswell())
	s := h.l14k
	sets := s.setsMask + 1
	va := func(k int) uint64 { return uint64(k) * sets << 12 } // all in set 0
	tag := func(k int) uint64 { return va(k)>>12 + 1 }
	for k := 0; k < s.ways; k++ {
		h.Fill(va(k), vm.Page4K)
	}
	for k := 1; k < s.ways; k++ {
		if !h.Lookup(va(k), vm.Page4K).L1Hit {
			t.Fatalf("re-touch of page %d missed the L1", k)
		}
	}
	if got := s.tags[s.ways-1]; got != tag(0) {
		t.Fatalf("LRU slot holds tag %#x, want the untouched page 0 (tag %#x)", got, tag(0))
	}
	h.Fill(va(s.ways), vm.Page4K)
	want := []uint64{tag(s.ways)}
	for k := s.ways - 1; k >= 1; k-- {
		want = append(want, tag(k))
	}
	if got := s.tags[:s.ways]; !slices.Equal(got, want) {
		t.Fatalf("after the fill set 0 is %#x, want %#x: page 0 evicted, the rest most recent first", got, want)
	}
}

// TestDecodeRejectsMalformedSets plants each way a set can fail to be a
// recency list in an L1 4K set of an encoded hierarchy, and requires
// decoding to fail; the unplanted hierarchy decodes to the same sets.
func TestDecodeRejectsMalformedSets(t *testing.T) {
	// Set 0 of Haswell's 16-set L1 4K array holds the keys that are
	// multiples of 16, whose tags are 1, 17, 33, ...
	for _, c := range []struct {
		set0 []uint64
		want string // in the decode error; "" for a clean set
	}{
		{[]uint64{17, 1, 0, 0}, ""},
		{[]uint64{17, 0, 1, 0}, "after an invalid slot"},
		{[]uint64{17, 17, 0, 0}, "duplicate tag"},
		{[]uint64{17, 2, 0, 0}, "belongs to set 1"},
	} {
		h := New(Haswell())
		copy(h.l14k.tags, c.set0)
		var buf bytes.Buffer
		if _, err := ckpt.Save(&buf, "tlb", func(e *ckpt.Encoder) { Walk(e.Walker(), &h) }); err != nil {
			t.Fatal(err)
		}
		d, err := ckpt.Load(bytes.NewReader(buf.Bytes()), "tlb")
		if err != nil {
			t.Fatal(err)
		}
		var got *Hierarchy
		Walk(d.Walker(), &got)
		err = d.Finish()
		switch {
		case c.want == "" && err != nil:
			t.Fatalf("set 0 = %#x failed to decode: %v", c.set0, err)
		case c.want == "" && !slices.Equal(got.l14k.tags, h.l14k.tags):
			t.Fatalf("decoded L1 4K array %#x, encoded %#x", got.l14k.tags, h.l14k.tags)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Fatalf("set 0 = %#x decoded with error %v, want one naming %q", c.set0, err, c.want)
		}
	}
}
