// Package cache models the data-side cache hierarchy with two
// set-associative levels (L1D and LLC) of 64-byte lines, physically
// indexed. The model exists to keep relative performance honest: the
// paper notes that degree-based reordering improves on-chip locality as
// well as TLB behaviour, and both effects must be present for the
// headline ratios to have the right shape.
package cache

import (
	"fmt"
	"unsafe"

	"graphmem/internal/check"
)

// LineShift is log2 of the cache line size (64B lines).
const LineShift = 6

// LevelConfig sizes one cache level.
type LevelConfig struct {
	Bytes int
	Ways  int
}

// Config describes the data cache hierarchy.
type Config struct {
	Name string
	L1D  LevelConfig
	LLC  LevelConfig
}

// Haswell returns a per-core view of the paper machine's data caches:
// 32KB 8-way L1D and a 2.5MB LLC slice. (We model a single-threaded run,
// so one core's LLC slice share is the capacity that matters; the paper
// pins the application to one socket.)
func Haswell() Config {
	return Config{
		Name: "haswell",
		L1D:  LevelConfig{Bytes: 32 << 10, Ways: 8},
		LLC:  LevelConfig{Bytes: 2560 << 10, Ways: 20},
	}
}

// Scaled divides capacities by div, preserving line size and clamping to
// one set.
func Scaled(c Config, div int) Config {
	sc := func(l LevelConfig) LevelConfig {
		b := l.Bytes / div
		if b < 64*l.Ways {
			b = 64 * l.Ways
		}
		// Round the set count down to a power of two (line size and
		// associativity are preserved).
		sets := b / (64 * l.Ways)
		for sets&(sets-1) != 0 {
			sets &= sets - 1
		}
		return LevelConfig{Bytes: sets * 64 * l.Ways, Ways: l.Ways}
	}
	return Config{Name: fmt.Sprintf("%s/%d", c.Name, div), L1D: sc(c.L1D), LLC: sc(c.LLC)}
}

// Stats counts hierarchy activity.
type Stats struct {
	Accesses uint64
	L1Misses uint64
	LLCMiss  uint64 // DRAM accesses
}

// Add returns the field-wise sum s + o (the sharded machine engine's
// per-shard merge).
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Accesses: s.Accesses + o.Accesses,
		L1Misses: s.L1Misses + o.L1Misses,
		LLCMiss:  s.LLCMiss + o.LLCMiss,
	}
}

// L1MissRate returns L1 misses / accesses.
func (s Stats) L1MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.L1Misses) / float64(s.Accesses)
}

// LLCMissRate returns DRAM accesses / accesses.
func (s Stats) LLCMissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.LLCMiss) / float64(s.Accesses)
}

// way is one line slot of a set: the line's tag (line+1, so 0 means
// empty) next to its LRU stamp. A set's ways are contiguous, so one
// probe reads a single block of tags and stamps.
type way struct {
	tag   uint64
	stamp uint64
}

type level struct {
	setsMask uint64
	ways     int
	block    []way // sets × ways; set s holds block[s*ways : (s+1)*ways]
	// clock advances once per access and by n per bulk repeat hit; at
	// 64 bits it cannot wrap within any run, so a larger stamp is always
	// the more recent touch.
	clock uint64
	last  int // block index touched by the most recent access (hit or fill)
}

func newLevel(c LevelConfig) *level {
	lines := c.Bytes >> LineShift
	if lines%c.Ways != 0 {
		panic(check.Failf("cache: %d lines not divisible by %d ways", lines, c.Ways))
	}
	sets := lines / c.Ways
	if sets&(sets-1) != 0 {
		panic(check.Failf("cache: set count %d not a power of two", sets))
	}
	return &level{
		setsMask: uint64(sets - 1),
		ways:     c.Ways,
		block:    make([]way, lines),
	}
}

// access probes line's set and, on a miss, fills the victim way: the
// first empty way, else the way with the lowest stamp, the earliest
// index breaking ties. An empty way always carries stamp 0 and a filled
// one a stamp of at least 1, so the lowest stamp, earliest first, is
// exactly that rule.
func (l *level) access(line uint64) bool {
	tag := line + 1
	base := int(line&l.setsMask) * l.ways
	set := l.block[base : base+l.ways]
	// One pass finds the hit and the victim together. Both selects
	// compile to conditional moves: irregular (gather-shaped) streams
	// hit a different way on nearly every probe, so an early-exit loop
	// would pay a branch mispredict per probe.
	hit, victim, oldest := -1, 0, ^uint64(0)
	for w := range set {
		if set[w].tag == tag {
			hit = w
		}
		if s := set[w].stamp; s < oldest {
			victim, oldest = w, s
		}
	}
	l.clock++
	if hit >= 0 {
		set[hit].stamp = l.clock
		l.last = base + hit
		return true
	}
	set[victim] = way{tag: tag, stamp: l.clock}
	l.last = base + victim
	return false
}

func (l *level) reset() {
	clear(l.block)
	l.clock = 0
	l.last = 0
}

// Hierarchy is a live two-level data cache.
type Hierarchy struct {
	cfg   Config
	l1    *level
	llc   *level
	stats Stats
}

// New builds a hierarchy.
func New(cfg Config) *Hierarchy {
	return &Hierarchy{cfg: cfg, l1: newLevel(cfg.L1D), llc: newLevel(cfg.LLC)}
}

// Config returns the configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Stats returns a copy of the counters.
func (h *Hierarchy) Stats() Stats { return h.stats }

// ResetStats zeroes counters, keeping cache contents.
func (h *Hierarchy) ResetStats() { h.stats = Stats{} }

// Reset clears contents and counters.
func (h *Hierarchy) Reset() {
	h.l1.reset()
	h.llc.reset()
	h.stats = Stats{}
}

// AccessLevel tells the caller which level satisfied an access.
type AccessLevel uint8

const (
	HitL1 AccessLevel = iota
	HitLLC
	HitDRAM
)

// AccessRepeatL1 charges n data accesses to physical address pa that are
// known to hit the L1: pa's line is the line the immediately preceding
// Access touched (hit or fill — either way the access left it
// most-recently-used in its set, and its way memoized in last), and no
// other hierarchy call has intervened. Counters and L1 LRU state advance
// exactly as n Access calls returning HitL1 would; the LLC is untouched,
// as it is on any L1 hit. The contract is verified under -tags simcheck,
// where a violation — a bulk caller charging a line its preceding probe
// did not touch — panics; normal builds trust the caller so the body
// stays under the inlining budget (a Failf call alone exceeds it), and
// the engines' differential suites enforce the same guarantee end to
// end.
func (h *Hierarchy) AccessRepeatL1(pa, n uint64) {
	h.stats.Accesses += n
	l := h.l1
	e := &l.block[l.last]
	if check.Enabled && e.tag != pa>>LineShift+1 {
		panic(check.Failf("cache: bulk repeat hit on line %#x, but the preceding access touched line %#x",
			pa>>LineShift, e.tag-1))
	}
	l.clock += n
	e.stamp = l.clock
}

// Access simulates a data access to physical address pa and reports
// which level served it. Fills are performed along the way (inclusive).
func (h *Hierarchy) Access(pa uint64) AccessLevel {
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

// FootprintBytes reports the simulator-side bytes backing the cache
// hierarchy's set blocks (a 64-bit tag and a 64-bit LRU stamp per
// line), for the stats.Footprint report.
func (h *Hierarchy) FootprintBytes() uint64 {
	var b uint64
	for _, l := range []*level{h.l1, h.llc} {
		if l != nil {
			b += uint64(len(l.block)) * uint64(unsafe.Sizeof(way{}))
		}
	}
	return b
}
