package machine

import (
	"runtime"
	"sync"
	"sync/atomic"

	"graphmem/internal/cache"
	"graphmem/internal/check"
	"graphmem/internal/sched"
)

// The cache stage (DESIGN.md §4g). While a kernel streams its accesses
// to the machine, the data-cache hierarchy runs on a cache goroutine of
// its own, one step behind the goroutine that replays the stream. The
// replay goroutine keeps translation, faults, heat, per-array counts and
// events; at the three probe sites (Access, bulkSegment, gatherSegment)
// it appends the probe to a fixed block instead of calling the
// hierarchy, and the cache goroutine applies the blocks to m.Cache in
// order, over a sched.Ring. A block is a run of words:
//
//	probe:   pa                  pa < repeatOp
//	repeat:  repeatOp|n          n same-line L1 hits on the last probe's line
//	         pa                  (simcheck builds only: the contract check's line)
//
// The clock. The data caches are tied to the rest of the machine only
// by the cycle clock that event deadlines read. A handed-off probe is
// charged the dearest level, max(L1DHit, LLCHit, DRAM) + Compute, so
// the clock, the phase's Cycles and its DataCycles are upper bounds of
// their exact values, and the cache goroutine sums each probe's
// overcharge. A site that finds the bound at the event deadline first
// takes the overcharge the cache goroutine has published so far; if the
// bound still reaches the deadline it drains the stage — waits until
// every probe is applied and takes the rest — and runs events only if
// the exact clock has reached the deadline. Every earlier check saw a
// bound below the deadline, so the exact clock first reached it at this
// access, exactly where the scalar loop dispatches. A drain that leaves
// the deadline within near cycles hands the cache back to the replay
// goroutine, which probes inline until the events have run; a stale
// deadline keeps it inline too.

const (
	// stageBlockWords sizes one block (32 KB); stageBlocks blocks
	// circulate per stage (128 KB), pooled across stages.
	stageBlockWords = 4096
	stageBlocks     = 4

	// stageNear bounds how close to a deadline a drain may leave the
	// clock and still hand probes off: within it, the replay goroutine
	// probes inline rather than draining again and again.
	stageNear = 1 << 18

	// repeatOp marks a repeat word; its low bits are the run's length.
	repeatOp = 1 << 63
)

// stageMem is one stage's blocks.
type stageMem [stageBlocks][stageBlockWords]uint64

// stagePool reuses blocks across stages: a campaign opens one stage per
// monolithic cell.
var stagePool = sync.Pool{New: newStageMem}

func newStageMem() any { return new(stageMem) }

// CacheStageStats counts cache-stage activity over a machine's life.
// Host-side diagnostics: they are not simulation state and never reach
// an output.
type CacheStageStats struct {
	Starts uint64 // cache goroutines started
	Drains uint64 // waits for one to apply every probe, the last at stop included
}

// CacheStageStats returns the machine's cache-stage counters.
func (m *Machine) CacheStageStats() CacheStageStats { return m.stageStats }

// cacheStage is one cache goroutine and its handoff.
type cacheStage struct {
	// The replay goroutine's side: the block being filled and the
	// words of it in use, always fewer than stageBlockWords.
	blk *[stageBlockWords]uint64
	n   int

	cMax  uint64 // the charge of a handed-off probe
	near  uint64 // the inline window after a drain, in cycles
	taken uint64 // overcharge already taken off the clock

	mem  *stageMem
	ring *sched.Ring
	h    *cache.Hierarchy
	over [4]uint64 // cMax minus the cost of a hit at each cache.AccessLevel

	sum uint64        // cache goroutine: overcharge of the applied probes
	pub atomic.Uint64 // sum as of the last applied block
}

// StartCacheStage starts the cache goroutine: from here to
// StopCacheStage, Access, AccessRun and AccessGather may hand their
// data-cache probes to it. Nothing else may touch the machine in
// between. It does nothing when page tables are simulated (a walk's
// fetches go through the data cache and charge translation cycles) or
// GOMAXPROCS is 1: on one processor the handoff only adds work (on a
// 2-vCPU Xeon host at GOMAXPROCS 1, paper-full's wall_s read 11.07 s
// inline and 11.83 s with the stage, which won 1 of 10 pairs).
func (m *Machine) StartCacheStage() {
	if m.stage != nil || m.simPT || runtime.GOMAXPROCS(0) < 2 {
		return
	}
	cMax := max(m.dataCycles(cache.HitL1), m.dataCycles(cache.HitLLC), m.dataCycles(cache.HitDRAM))
	mem := stagePool.Get().(*stageMem)
	st := &cacheStage{blk: &mem[0], cMax: cMax, mem: mem, h: m.Cache}
	for lvl := cache.HitL1; lvl <= cache.HitDRAM; lvl++ {
		st.over[lvl] = cMax - m.dataCycles(lvl)
	}
	blocks := make([][]uint64, stageBlocks)
	for i := range blocks {
		blocks[i] = mem[i][:]
	}
	st.ring = sched.NewRing("cache", st, blocks)
	m.stage = st
	m.stageStats.Starts++
	m.armStage()
}

// StopCacheStage waits for the cache goroutine to apply every probe,
// ends it and takes the last overcharge, so the clock is exact again.
// It returns the cache goroutine's panic, if any, as a check.Failure
// carrying its stack. Call it only once no goroutine drives the machine;
// it does nothing when no stage is open.
func (m *Machine) StopCacheStage() error {
	st := m.stage
	if st == nil {
		return nil
	}
	m.stage, m.handoff = nil, nil
	m.stageStats.Drains++
	if err := st.ring.Close(st.blk[:st.n]); err != nil {
		return err
	}
	m.uncharge(st.sum - st.taken)
	stagePool.Put(st.mem)
	return nil
}

// pickProbes hands probes to the cache goroutine, if one is open, unless
// the deadline is stale or within near cycles. The caller has the clock
// exact and the stage drained.
func (m *Machine) pickProbes() {
	m.handoff = nil
	st := m.stage
	if st == nil || m.nextEvent <= m.cycles {
		return
	}
	if gap := m.nextEvent - m.cycles; gap >= st.near {
		m.handoff = st
	}
}

// armStage sets the inline window for the deadline just armed: stageNear,
// or half the gap to a nearer deadline, so that probes are handed off
// for at least half of every interval.
func (m *Machine) armStage() {
	st := m.stage
	if st == nil {
		return
	}
	st.near = stageNear
	if m.nextEvent > m.cycles {
		st.near = min(stageNear, (m.nextEvent-m.cycles)/2)
	}
	m.pickProbes()
}

// atDeadline runs the due events once a site finds m.cycles >=
// m.nextEvent. While probes are handed off, the clock is an upper bound:
// it takes the overcharge the cache goroutine has published and, if the
// bound still reaches the deadline, drains the stage; events run only if
// the exact clock reached it. The caller has flushed its batch
// accounting and returns right after, so a deadline that turns out not
// to be due only splits its batch.
func (m *Machine) atDeadline() {
	if st := m.handoff; st != nil {
		m.uncharge(st.published())
		if m.cycles < m.nextEvent {
			return
		}
		m.uncharge(st.drain())
		m.stageStats.Drains++
		if m.cycles < m.nextEvent {
			m.pickProbes()
			return
		}
		m.handoff = nil
	}
	m.runEvents()
	m.armStage()
}

// uncharge takes over cycles of deferred-probe overcharge off the clock
// and the phase's mirrors of it.
func (m *Machine) uncharge(over uint64) {
	m.cycles -= over
	m.phase.Cycles -= over
	m.phase.DataCycles -= over
}

// dataCycles is the data cost of an access the cache served at lvl.
func (m *Machine) dataCycles(lvl cache.AccessLevel) uint64 {
	switch lvl {
	case cache.HitL1:
		return m.Model.L1DHit + m.Model.Compute
	case cache.HitLLC:
		return m.Model.LLCHit + m.Model.Compute
	default:
		return m.Model.DRAM + m.Model.Compute
	}
}

// probe hands the cache goroutine a probe of pa.
func (st *cacheStage) probe(pa uint64) {
	st.blk[st.n&(stageBlockWords-1)] = pa
	st.n++
	if st.n == stageBlockWords {
		st.send()
	}
}

// repeat hands the cache goroutine n same-line L1 hits at pa, whose line
// is the last probe's: one word, and under simcheck a second one, pa,
// for the cache's contract check.
func (st *cacheStage) repeat(pa, n uint64) {
	if check.Enabled && st.n == stageBlockWords-1 {
		st.send() // keep the pair in one block
	}
	st.probe(repeatOp | n)
	if check.Enabled {
		st.probe(pa)
	}
}

// send hands the open block over and opens the next one. It stays out
// of line so that probe, which calls it once a block, inlines at the
// three probe sites.
//
//go:noinline
func (st *cacheStage) send() {
	st.blk = (*[stageBlockWords]uint64)(st.ring.Put(st.blk[:st.n]))
	st.n = 0
}

// published returns the overcharge the cache goroutine has published
// and the clock has not yet taken.
func (st *cacheStage) published() uint64 {
	p := st.pub.Load()
	d := p - st.taken
	st.taken = p
	return d
}

// drain hands the open block over, waits until the cache goroutine has
// applied every probe, and returns the overcharge the clock has not yet
// taken.
func (st *cacheStage) drain() uint64 {
	st.blk = (*[stageBlockWords]uint64)(st.ring.Sync(st.blk[:st.n]))
	st.n = 0
	d := st.sum - st.taken
	st.taken = st.sum
	return d
}

// Consume is the cache goroutine's work: it applies one block's probes
// to the hierarchy and publishes the overcharge summed so far.
func (st *cacheStage) Consume(blk []uint64) {
	h, sum := st.h, st.sum
	for i := 0; i < len(blk); i++ {
		w := blk[i]
		if w&repeatOp != 0 {
			var pa uint64
			if check.Enabled {
				i++
				pa = blk[i]
			}
			h.AccessRepeatL1(pa, w&^repeatOp)
			continue
		}
		sum += st.over[h.Access(w)&3]
	}
	st.sum = sum
	st.pub.Store(sum)
}
