package cache

import (
	"bytes"
	"cmp"
	"slices"
	"strings"
	"testing"

	"graphmem/internal/ckpt"
	"graphmem/internal/lru"
)

// tinyConfig is a hierarchy small enough that a short address stream
// fills sets, evicts from them and refills them: a 2-set 4-way L1 over
// a 4-set 8-way LLC.
func tinyConfig() Config {
	return Config{
		Name: "tiny",
		L1D:  LevelConfig{Bytes: 512, Ways: 4},
		LLC:  LevelConfig{Bytes: 2048, Ways: 8},
	}
}

// cachePair drives the recency-list hierarchy and the stamp-based
// oracle through the same operations and fails on the first
// divergence in any result, counter or set order.
type cachePair struct {
	t   testing.TB
	h   *Hierarchy
	ref *refHierarchy
	// prevPA is the address of the preceding operation when it was an
	// Access, the one case AccessRepeatL1's contract allows.
	prevPA     uint64
	prevAccess bool
	// L1 fills into a set with two or more empty ways (the first-empty
	// rule decides), and fills into a full set (the lowest stamp does).
	fillsPastEmpty, evictions int
}

func newCachePair(t testing.TB, cfg Config) *cachePair {
	return &cachePair{t: t, h: New(cfg), ref: newRefHierarchy(cfg)}
}

func (p *cachePair) access(pa uint64) {
	p.t.Helper()
	p.countRule(pa >> LineShift)
	if got, want := p.h.Access(pa), p.ref.Access(pa); got != want {
		p.t.Fatalf("Access(%#x) = %v, reference %v", pa, got, want)
	}
	p.prevPA, p.prevAccess = pa, true
	p.check("Access")
}

// repeat charges n bulk L1 hits on the preceding access's line, or
// stands in an access when the preceding operation was not one.
func (p *cachePair) repeat(n uint64) {
	p.t.Helper()
	if !p.prevAccess {
		p.access(n << LineShift)
		return
	}
	p.h.AccessRepeatL1(p.prevPA, n)
	p.ref.AccessRepeatL1(p.prevPA, n)
	p.prevAccess = false
	p.check("AccessRepeatL1")
}

func (p *cachePair) reset() {
	p.t.Helper()
	p.h.Reset()
	p.ref.Reset()
	p.prevAccess = false
	p.check("Reset")
}

// countRule classifies the L1 fill an access to line is about to make,
// from the oracle's state.
func (p *cachePair) countRule(line uint64) {
	l := p.ref.l1
	base := int(line&l.setsMask) * l.ways
	empty := 0
	for w := 0; w < l.ways; w++ {
		switch l.tags[base+w] {
		case line + 1:
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

func (p *cachePair) check(op string) {
	p.t.Helper()
	if p.h.stats != p.ref.stats {
		p.t.Fatalf("after %s: stats %+v, reference %+v", op, p.h.stats, p.ref.stats)
	}
	sameLevel(p.t, op, "l1", p.h.l1, p.ref.l1)
	sameLevel(p.t, op, "llc", p.h.llc, p.ref.llc)
}

// sameLevel requires every set of l to list exactly the oracle's
// resident tags of that set, most recent stamp first, then zeros.
func sameLevel(t testing.TB, op, name string, l *lru.Sets, ref *refLevel) {
	t.Helper()
	if l.Ways() != ref.ways {
		t.Fatalf("after %s: %s has %d ways, reference %d", op, name, l.Ways(), ref.ways)
	}
	for s := 0; s <= int(ref.setsMask); s++ {
		base := s * ref.ways
		want := recencyOrder(t, ref.tags[base:base+ref.ways], ref.stamp[base:base+ref.ways])
		if got := l.Set(uint64(s)); !slices.Equal(got, want) {
			t.Fatalf("after %s: %s set %d is %#x, reference order %#x", op, name, s, got, want)
		}
	}
}

// recencyOrder returns a stamp-LRU set as a recency list: its resident
// tags by descending stamp, then zeros. Two resident tags with one
// stamp would leave the order undefined, so they fail the test.
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
			t.Fatalf("reference set %#x: two resident tags share stamp %d", tags, stamps[w])
		}
		order[i] = tags[w]
	}
	return order
}

// replay decodes data two bytes per operation: mostly accesses to 48
// lines (three times the tiny L1 and 1.5 times its LLC), plus bulk
// repeat hits, resets and accesses to scattered 64-bit addresses. It
// stops after 4096 operations, so the oracle's clock stays far below
// 2^32, where its 32-bit stamps wrap.
func (p *cachePair) replay(data []byte) {
	p.t.Helper()
	for ops := 0; len(data) >= 2 && ops < 4096; ops++ {
		op, arg := data[0], data[1]
		data = data[2:]
		switch op % 8 {
		case 6:
			p.repeat(uint64(arg))
		case 7:
			if arg == 0 {
				p.reset()
				continue
			}
			p.access(uint64(arg) * 0x9E3779B97F4A7C15)
		default:
			p.access(uint64(arg%48)<<LineShift | uint64(op&63))
		}
	}
}

// TestLevelMatchesReference replays a long pseudo-random stream against
// the oracle, on the tiny hierarchy and on Haswell's, and requires the
// stream to have exercised both victim rules.
func TestLevelMatchesReference(t *testing.T) {
	data := make([]byte, 8000)
	x := uint64(1)
	for i := range data {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		data[i] = byte(x >> 32)
	}
	for _, cfg := range []Config{tinyConfig(), Scaled(Haswell(), 64)} {
		p := newCachePair(t, cfg)
		p.replay(data)
		if p.fillsPastEmpty == 0 || p.evictions == 0 {
			t.Fatalf("%s: stream made %d fills past an empty way and %d evictions; both rules must be exercised",
				cfg.Name, p.fillsPastEmpty, p.evictions)
		}
	}
}

func FuzzLevelMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 6, 9, 0, 3, 0, 4, 0, 5, 0, 1, 7, 0, 0, 17, 7, 200})
	f.Add([]byte{0, 0, 0, 2, 0, 4, 0, 6, 0, 8, 0, 10, 0, 2, 6, 255, 0, 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		newCachePair(t, tinyConfig()).replay(data)
	})
}

// TestLRUAcrossOldClockWrap pins the scenario 32-bit LRU stamps once
// got wrong where they wrapped: fill one set, re-touch every line but
// the first, and the next fill must evict that untouched line. The set
// is its own recency list, with no clock to wrap, so the test reads
// the order directly.
func TestLRUAcrossOldClockWrap(t *testing.T) {
	h := New(Haswell())
	sets, _ := h.cfg.L1D.sets()
	ways := h.l1.Ways()
	pa := func(k int) uint64 { return uint64(k*sets) << LineShift } // all in set 0
	tag := func(k int) uint64 { return pa(k)>>LineShift + 1 }
	for k := 0; k < ways; k++ {
		h.Access(pa(k))
	}
	for k := 1; k < ways; k++ {
		if h.Access(pa(k)) != HitL1 {
			t.Fatalf("re-touch of line %d missed", k)
		}
	}
	set0 := h.l1.Set(0)
	if got := set0[ways-1]; got != tag(0) {
		t.Fatalf("LRU slot holds tag %#x, want the untouched line 0 (tag %#x)", got, tag(0))
	}
	h.Access(pa(ways))
	want := []uint64{tag(ways)}
	for k := ways - 1; k >= 1; k-- {
		want = append(want, tag(k))
	}
	if !slices.Equal(set0, want) {
		t.Fatalf("after the fill set 0 is %#x, want %#x: line 0 evicted, the rest most recent first", set0, want)
	}
}

// TestDecodeRejectsMalformedSets requires decoding an encoded hierarchy
// to reproduce its L1 sets, and to fail, naming the level, once a
// duplicate tag is planted in one of them. lru's
// TestCheckRejectsMalformedSets covers every way a set can be
// malformed.
func TestDecodeRejectsMalformedSets(t *testing.T) {
	// Set 0 of the tiny L1 holds the even lines, whose tags are odd.
	for _, c := range []struct {
		set0 []uint64
		want string // in the decode error; "" for a clean set
	}{
		{[]uint64{5, 1, 0, 0}, ""},
		{[]uint64{5, 5, 0, 0}, "cache: l1: set 0: duplicate tag"},
	} {
		h := New(tinyConfig())
		copy(h.l1.Set(0), c.set0)
		var buf bytes.Buffer
		if _, err := ckpt.Save(&buf, "cache", func(e *ckpt.Encoder) { Walk(e.Walker(), &h) }); err != nil {
			t.Fatal(err)
		}
		d, err := ckpt.Load(bytes.NewReader(buf.Bytes()), "cache")
		if err != nil {
			t.Fatal(err)
		}
		var got *Hierarchy
		Walk(d.Walker(), &got)
		err = d.Finish()
		switch {
		case c.want == "" && err != nil:
			t.Fatalf("set 0 = %#x failed to decode: %v", c.set0, err)
		case c.want == "" && !slices.Equal(got.l1.Set(0), c.set0):
			t.Fatalf("decoded L1 set 0 %#x, encoded %#x", got.l1.Set(0), c.set0)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Fatalf("set 0 = %#x decoded with error %v, want one naming %q", c.set0, err, c.want)
		}
	}
}
