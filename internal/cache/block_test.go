package cache

import (
	"testing"
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

// cachePair drives the set-block hierarchy and the parallel-array
// oracle through the same operations and fails on the first
// divergence in any result, tag, stamp, clock, last way or counter.
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

func sameLevel(t testing.TB, op, name string, l *level, ref *refLevel) {
	t.Helper()
	if l.clock != uint64(ref.clock) || l.last != ref.last || len(l.block) != len(ref.tags) {
		t.Fatalf("after %s: %s clock %d last %d (%d ways), reference clock %d last %d (%d ways)",
			op, name, l.clock, l.last, len(l.block), ref.clock, ref.last, len(ref.tags))
	}
	for i, e := range l.block {
		if e.tag != ref.tags[i] || e.stamp != uint64(ref.stamp[i]) {
			t.Fatalf("after %s: %s way %d holds tag %#x stamp %d, reference tag %#x stamp %d",
				op, name, i, e.tag, e.stamp, ref.tags[i], ref.stamp[i])
		}
	}
}

// replay decodes data two bytes per operation: mostly accesses to 48
// lines (three times the tiny L1 and 1.5 times its LLC), plus bulk
// repeat hits, resets and accesses to scattered 64-bit addresses. It
// stops after 4096 operations, so the clock stays far below 2^32,
// where the oracle's 32-bit stamps wrap.
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

// TestLRUAcrossOldClockWrap starts the L1 clock just below 2^32, where
// 32-bit stamps used to wrap, fills one set, re-touches every way but
// the first, and requires the next fill to evict that untouched way:
// with a wrapped clock the re-touched lines looked oldest instead.
func TestLRUAcrossOldClockWrap(t *testing.T) {
	h := New(Haswell())
	l := h.l1
	l.clock = 0xFFFFFFF5
	sets := l.setsMask + 1
	pa := func(k int) uint64 { return uint64(k) * sets << LineShift } // all in set 0
	for k := 0; k < l.ways; k++ {
		h.Access(pa(k))
	}
	for k := 1; k < l.ways; k++ {
		if h.Access(pa(k)) != HitL1 {
			t.Fatalf("re-touch of line %d missed", k)
		}
	}
	if l.clock <= 1<<32 {
		t.Fatalf("clock %#x did not cross 2^32", l.clock)
	}
	h.Access(pa(l.ways))
	for w, e := range l.block[:l.ways] {
		if e.tag == pa(0)>>LineShift+1 {
			t.Fatalf("untouched line 0 survived the fill in way %d; a recently used line was evicted", w)
		}
	}
	for k := 1; k <= l.ways; k++ {
		if h.Access(pa(k)) != HitL1 {
			t.Fatalf("line %d was evicted instead of the least recently used line 0", k)
		}
	}
}
