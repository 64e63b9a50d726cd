package cache

import "graphmem/internal/check"

// The parallel-array level and the hierarchy's probe paths as they
// stood before the set blocks: tags and 32-bit LRU stamps in two
// arrays, a branch-free hit scan, then a separate victim scan on a
// miss. Kept verbatim as the oracle the differential test and
// FuzzLevelMatchesReference hold the recency lists to.

type refLevel struct {
	setsMask uint64
	ways     int
	tags     []uint64
	stamp    []uint32
	clock    uint32
	last     int // way index touched by the most recent access (hit or fill)
}

func newRefLevel(c LevelConfig) *refLevel {
	lines := c.Bytes >> LineShift
	if lines%c.Ways != 0 {
		panic(check.Failf("cache: %d lines not divisible by %d ways", lines, c.Ways))
	}
	sets := lines / c.Ways
	if sets&(sets-1) != 0 {
		panic(check.Failf("cache: set count %d not a power of two", sets))
	}
	return &refLevel{
		setsMask: uint64(sets - 1),
		ways:     c.Ways,
		tags:     make([]uint64, lines),
		stamp:    make([]uint32, lines),
	}
}

func (l *refLevel) access(line uint64) bool {
	tag := line + 1
	base := int(line&l.setsMask) * l.ways
	// Branchless hit scan: irregular (gather-shaped) streams hit a
	// different way on nearly every probe, so an early-exit loop pays a
	// branch mispredict per probe — the conditional select below
	// compiles to a CMOV and keeps the hit path flat. The victim scan
	// runs only on a miss, with the original selection logic (first
	// empty way, else lowest stamp, earliest index breaking ties).
	hit := -1
	for w := 0; w < l.ways; w++ {
		i := base + w
		if l.tags[i] == tag {
			hit = i
		}
	}
	if hit >= 0 {
		l.clock++
		l.stamp[hit] = l.clock
		l.last = hit
		return true
	}
	victim, oldest := base, uint32(0xFFFFFFFF)
	for w := 0; w < l.ways; w++ {
		i := base + w
		if l.tags[i] == 0 {
			if oldest != 0 {
				victim, oldest = i, 0
			}
			continue
		}
		if l.stamp[i] < oldest {
			victim, oldest = i, l.stamp[i]
		}
	}
	l.clock++
	l.tags[victim] = tag
	l.stamp[victim] = l.clock
	l.last = victim
	return false
}

func (l *refLevel) reset() {
	for i := range l.tags {
		l.tags[i] = 0
		l.stamp[i] = 0
	}
	l.clock = 0
	l.last = 0
}

// refHierarchy is Hierarchy over reference levels.
type refHierarchy struct {
	cfg   Config
	l1    *refLevel
	llc   *refLevel
	stats Stats
}

func newRefHierarchy(cfg Config) *refHierarchy {
	return &refHierarchy{cfg: cfg, l1: newRefLevel(cfg.L1D), llc: newRefLevel(cfg.LLC)}
}

func (h *refHierarchy) Reset() {
	h.l1.reset()
	h.llc.reset()
	h.stats = Stats{}
}

func (h *refHierarchy) AccessRepeatL1(pa, n uint64) {
	h.stats.Accesses += n
	l := h.l1
	w := l.last
	if check.Enabled && l.tags[w] != pa>>LineShift+1 {
		panic(check.Failf("cache: bulk repeat hit on line %#x, but the preceding access touched line %#x",
			pa>>LineShift, l.tags[w]-1))
	}
	l.clock += uint32(n)
	l.stamp[w] = l.clock
}

func (h *refHierarchy) Access(pa uint64) AccessLevel {
	h.stats.Accesses++
	line := pa >> LineShift
	if h.l1.access(line) {
		return HitL1
	}
	h.stats.L1Misses++
	if h.llc.access(line) {
		return HitLLC
	}
	h.stats.LLCMiss++
	return HitDRAM
}
