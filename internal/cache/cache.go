// Package cache models the data-side cache hierarchy with two
// set-associative levels (L1D and LLC) of 64-byte lines, physically
// indexed. Each level is an lru.Sets keyed by line number, so its sets
// keep true-LRU order and an access is one move-to-front walk. The
// model exists to keep relative performance honest: the paper notes
// that degree-based reordering improves on-chip locality as well as TLB
// behaviour, and both effects must be present for the headline ratios
// to have the right shape.
package cache

import (
	"fmt"

	"graphmem/internal/check"
	"graphmem/internal/lru"
)

// LineShift is log2 of the cache line size (64B lines).
const LineShift = 6

// LevelConfig sizes one cache level.
type LevelConfig struct {
	Bytes int
	Ways  int
}

// sets returns the level's set count: its lines must split evenly into
// its ways, and into a positive power-of-two number of sets.
func (c LevelConfig) sets() (int, error) {
	lines := c.Bytes >> LineShift
	if c.Ways <= 0 || lines%c.Ways != 0 {
		return 0, fmt.Errorf("%d lines not divisible by %d ways", lines, c.Ways)
	}
	sets := lines / c.Ways
	if sets == 0 || sets&(sets-1) != 0 {
		return 0, fmt.Errorf("set count %d not a positive power of two", sets)
	}
	return sets, nil
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

// Hierarchy is a live two-level data cache.
type Hierarchy struct {
	cfg   Config
	l1    *lru.Sets // keyed by line number
	llc   *lru.Sets
	stats Stats
}

// New builds a hierarchy. It panics if a level's geometry is not one
// LevelConfig.sets accepts.
func New(cfg Config) *Hierarchy {
	return &Hierarchy{cfg: cfg, l1: newLevel(cfg.L1D), llc: newLevel(cfg.LLC)}
}

func newLevel(c LevelConfig) *lru.Sets {
	sets, err := c.sets()
	if err != nil {
		panic(check.Failf("cache: %v", err))
	}
	return lru.New(sets, c.Ways)
}

// Config returns the configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Stats returns a copy of the counters.
func (h *Hierarchy) Stats() Stats { return h.stats }

// ResetStats zeroes counters, keeping cache contents.
func (h *Hierarchy) ResetStats() { h.stats = Stats{} }

// Reset clears contents and counters.
func (h *Hierarchy) Reset() {
	h.l1.Reset()
	h.llc.Reset()
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
// known to hit the L1: pa's line is the most recently used line of its
// L1 set, as it is right after an Access to it. n hits on a set's MRU
// line leave every set's order as it is, so only the counter moves,
// exactly as for n Access calls returning HitL1; the LLC is untouched,
// as on any L1 hit. The contract is verified under -tags simcheck,
// where a bulk caller charging a line that is not its set's MRU line
// panics; normal builds trust the caller so the body stays under the
// inlining budget (a Failf call alone exceeds it), and the engines'
// differential suites enforce the same guarantee end to end.
func (h *Hierarchy) AccessRepeatL1(pa, n uint64) {
	h.stats.Accesses += n
	if check.Enabled {
		line := pa >> LineShift
		if mru := h.l1.Set(line)[0]; mru != line+1 {
			panic(check.Failf("cache: bulk repeat hit on line %#x, which is not the MRU line of its L1 set (MRU tag %#x)",
				line, mru))
		}
	}
}

// Access simulates a data access to physical address pa and reports
// which level served it. Fills are performed along the way (inclusive).
func (h *Hierarchy) Access(pa uint64) AccessLevel {
	h.stats.Accesses++
	line := pa >> LineShift
	if h.l1.Touch(line) {
		return HitL1
	}
	h.stats.L1Misses++
	if h.llc.Touch(line) {
		return HitLLC
	}
	h.stats.LLCMiss++
	return HitDRAM
}
