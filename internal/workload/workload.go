// Package workload recreates the paper's experiment environments: the
// memhog utility that constrains free memory (§4.3.1), the frag utility
// that poisons 2MB regions with non-movable pages (§4.4.1), the ambient
// fragmentation of a long-running system, and the page-cache
// interference of naive data loading (§4.3).
//
// Each helper mutates only the memsys.Memory it is handed, and placement
// decisions come from deterministic hashes of the caller's seed — never
// from shared or global state. Concurrent campaign cells therefore
// build identical hostile environments from identical parameters, even
// though every cell ages and fragments its own private machine.
package workload

import (
	"sort"

	"graphmem/internal/check"
	"graphmem/internal/memsys"
)

// AgeSystem emulates a host that has been up for a while: kernel
// (non-movable) 4KB allocations end up scattered across physical memory,
// so a fraction of all 2MB regions can never be coalesced into huge
// pages — the paper's "fragmentation arises from non-movable pages for
// memory directly used by the kernel ... which typically worsens over
// time". poisonFraction selects the fraction of regions receiving one
// unmovable page; placement inside each region is a deterministic hash.
// Returns the number of regions poisoned.
func AgeSystem(mem *memsys.Memory, poisonFraction float64, seed uint64) int {
	if poisonFraction <= 0 {
		return 0
	}
	if poisonFraction > 1 {
		poisonFraction = 1
	}
	regions := mem.TotalPages() / memsys.HugePages
	// Stratified placement: poisons land at a fixed stride with a
	// seed-derived phase, so every window of memory sees the same
	// density. (Pure Bernoulli sampling clumps badly at the few-hundred
	// region scale of a simulated node, which would make the free tail
	// left by memhog see anywhere between 0% and 3× the intended
	// non-movable density depending on the seed.)
	stride := uint64(1/poisonFraction + 0.5)
	if stride < 1 {
		stride = 1
	}
	phase := mix64(seed) % stride
	poisoned := 0
	for r := uint64(0); r < regions; r++ {
		if r%stride != phase {
			continue
		}
		h := mix64(r ^ seed)
		// Place one unmovable page at a hashed offset inside region r —
		// the residue of a kernel allocation that landed there long
		// ago and will never move.
		base := memsys.Frame(r * memsys.HugePages)
		keep := memsys.Frame((h >> 32) % memsys.HugePages)
		if mem.AllocAt(base+keep, 0, memsys.Unmovable, nil, 0) {
			poisoned++
		}
	}
	return poisoned
}

// mix64 is the SplitMix64 finalizer, used as a deterministic hash.
func mix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Memhog pins bytes of memory, like the paper's `memhog ... | mlock`
// combination: the pages cannot be reclaimed or swapped, but compaction
// may still migrate them. It holds the lowest-addressed free frames, the
// footprint the real program's page-at-a-time sequential touch leaves,
// so the remaining free memory is whatever the aged system left at the
// top. (The model is that ascending touch; staging takes the frames a
// free buddy block at a time, memsys.AllocLowest.)
//
// The pin set is stored as sorted, disjoint, maximal runs of contiguous
// frames rather than one entry per page: a hog pinning most of a node
// holds a handful of runs (the gaps are AgeSystem's litter), so the
// bookkeeping is a few dozen bytes where a dense frame list would cost
// 4 B for every pinned page — at paper scale, hundreds of megabytes.
// The frame cookie is the frame's own number, which is what lets
// FrameMoved verify membership without a per-page index.
type Memhog struct {
	mem   *memsys.Memory
	runs  []pinRun
	pages int
}

// pinRun is one maximal run of contiguous pinned frames,
// [start, start+n).
type pinRun struct {
	start memsys.Frame
	n     uint32
}

// FrameMoved implements memsys.Owner: compaction may migrate mlocked
// pages, and the hog must track where its memory went.
func (h *Memhog) FrameMoved(old, new memsys.Frame, cookie uint64) {
	if cookie != uint64(old) || !h.remove(old) {
		panic(check.Failf("workload: memhog frame bookkeeping out of sync"))
	}
	h.insert(new)
	// Compaction carried the old frame's cookie over to the new frame;
	// re-key it to the new frame number so the next move verifies.
	// (Re-registering a Pinned frame does not make it reclaimable.)
	h.mem.SetOwner(new, h, uint64(new))
}

// remove deletes frame f from the run set, splitting a run if f is
// interior. Reports whether f was actually pinned.
func (h *Memhog) remove(f memsys.Frame) bool {
	i := sort.Search(len(h.runs), func(i int) bool {
		return h.runs[i].start+memsys.Frame(h.runs[i].n) > f
	})
	if i == len(h.runs) || f < h.runs[i].start {
		return false
	}
	r := &h.runs[i]
	switch {
	case r.n == 1:
		h.runs = append(h.runs[:i], h.runs[i+1:]...)
	case f == r.start:
		r.start++
		r.n--
	case f == r.start+memsys.Frame(r.n)-1:
		r.n--
	default:
		tail := pinRun{start: f + 1, n: uint32(r.start+memsys.Frame(r.n)-f) - 1}
		r.n = uint32(f - r.start)
		h.runs = append(h.runs, pinRun{})
		copy(h.runs[i+2:], h.runs[i+1:])
		h.runs[i+1] = tail
	}
	h.pages--
	return true
}

// insert adds frame f to the run set, coalescing with adjacent runs.
func (h *Memhog) insert(f memsys.Frame) {
	i := sort.Search(len(h.runs), func(i int) bool { return h.runs[i].start > f })
	joinPrev := i > 0 && h.runs[i-1].start+memsys.Frame(h.runs[i-1].n) == f
	joinNext := i < len(h.runs) && h.runs[i].start == f+1
	switch {
	case joinPrev && joinNext:
		h.runs[i-1].n += 1 + h.runs[i].n
		h.runs = append(h.runs[:i], h.runs[i+1:]...)
	case joinPrev:
		h.runs[i-1].n++
	case joinNext:
		h.runs[i].start--
		h.runs[i].n++
	default:
		h.runs = append(h.runs, pinRun{})
		copy(h.runs[i+1:], h.runs[i:])
		h.runs[i] = pinRun{start: f, n: 1}
	}
	h.pages++
}

// FrameReclaimed implements memsys.Owner: mlocked memory is never
// reclaimed.
func (h *Memhog) FrameReclaimed(f memsys.Frame, cookie uint64) bool { return false }

var _ memsys.Owner = (*Memhog)(nil)
var _ memsys.FootprintReporter = (*Memhog)(nil)

// NewMemhog starts a memhog holding the given footprint. Frames are
// taken in ascending physical address order — the footprint a process
// gets when it sequentially touches a mostly-idle machine — so the
// remaining free memory is the top of the node, complete with whatever
// non-movable litter AgeSystem scattered there. (Letting the buddy
// allocator choose would have memhog soak up every aged fragment first
// and hand the application an artificially pristine tail.) The frames are
// pinned a free buddy block at a time, leaving the node exactly as
// pinning them one by one in that order would. It panics if memory
// cannot satisfy the request — a mis-sized experiment.
func NewMemhog(mem *memsys.Memory, bytes uint64) *Memhog {
	pages := bytes / memsys.PageSize
	h := &Memhog{mem: mem}
	got := mem.AllocLowest(pages, memsys.Pinned, h, func(f, n memsys.Frame) {
		// Blocks arrive in ascending order: each one extends the last
		// run or starts a new one past an occupied gap.
		if k := len(h.runs); k > 0 && h.runs[k-1].start+memsys.Frame(h.runs[k-1].n) == f {
			h.runs[k-1].n += uint32(n)
		} else {
			h.runs = append(h.runs, pinRun{start: f, n: uint32(n)})
		}
	})
	h.pages = int(got)
	if got < pages {
		panic(check.Failf("workload: memhog pinned only %d/%d pages", got, pages))
	}
	return h
}

// PinnedBytes returns the held footprint.
func (h *Memhog) PinnedBytes() uint64 {
	return uint64(h.pages) * memsys.PageSize
}

// Release frees everything the memhog holds, in ascending frame order.
func (h *Memhog) Release() {
	for _, r := range h.runs {
		for i := memsys.Frame(0); i < memsys.Frame(r.n); i++ {
			h.mem.Free(r.start+i, 0)
		}
	}
	h.runs = h.runs[:0]
	h.pages = 0
}

// FootprintReport implements memsys.FootprintReporter: the run set's
// cost, 8 B per contiguous pinned run.
func (h *Memhog) FootprintReport() (string, uint64) {
	return "workload/memhog", uint64(len(h.runs)) * 8
}

// Fragment reproduces the paper's frag utility: allocate 2MB unmovable
// blocks until `level` (0..1) of the currently-available memory is
// held, split each block into 512 4KB pages, then free pages 2–512 so
// only the first 4KB of every region stays allocated (non-movable).
// The result: `level` of the available memory has no contiguous 2MB
// region. Returns the number of regions fragmented.
func Fragment(mem *memsys.Memory, level float64) int {
	if level <= 0 {
		return 0
	}
	if level > 1 {
		level = 1
	}
	target := uint64(level * float64(mem.FreePages()))
	var taken uint64
	var blocks []memsys.Frame
	for taken+memsys.HugePages <= target {
		f := mem.Alloc(memsys.HugeOrder, memsys.Unmovable, nil, 0)
		if f == memsys.NoFrame {
			break
		}
		blocks = append(blocks, f)
		taken += memsys.HugePages
	}
	for _, f := range blocks {
		mem.SplitAllocated(f, memsys.HugeOrder)
		for i := memsys.Frame(1); i < memsys.HugePages; i++ {
			mem.Free(f+i, 0)
		}
	}
	return len(blocks)
}

// PageCache models the single-use page cache the paper warns about: when
// graph files are read without direct I/O or remote-node tmpfs, the OS
// caches the file contents locally, consuming free memory exactly when
// the application needs it for huge pages. The cached pages are
// reclaimable (dropped on demand), but Linux's fault path will not stall
// to reclaim them for non-madvised THP faults — so they silently
// suppress huge page allocation.
type PageCache struct {
	mem    *memsys.Memory
	frames map[memsys.Frame]struct{}
}

// NewPageCache creates an empty cache on mem.
func NewPageCache(mem *memsys.Memory) *PageCache {
	return &PageCache{mem: mem, frames: make(map[memsys.Frame]struct{})}
}

// Fill caches bytes of file data (e.g. the CSR files during loading),
// stopping early if memory runs out. Returns bytes actually cached.
func (pc *PageCache) Fill(bytes uint64) uint64 {
	pages := int(bytes / memsys.PageSize)
	for i := 0; i < pages; i++ {
		f := pc.mem.Alloc(0, memsys.Reclaimable, pc, 0)
		if f == memsys.NoFrame {
			return uint64(i) * memsys.PageSize
		}
		pc.frames[f] = struct{}{}
	}
	return uint64(pages) * memsys.PageSize
}

// Drop explicitly releases the whole cache (the paper's
// /proc/sys/vm/drop_caches, or the effect of tmpfs on the remote node).
// Frames are freed in ascending address order: freeing straight out of
// the map would release them in Go's randomized iteration order, which
// leaves identical buddy state but nondeterministic allocator hint
// positions and Free-call ordering (simlint SL003).
func (pc *PageCache) Drop() {
	frames := make([]memsys.Frame, 0, len(pc.frames))
	for f := range pc.frames {
		frames = append(frames, f)
	}
	sort.Slice(frames, func(a, b int) bool { return frames[a] < frames[b] })
	for _, f := range frames {
		pc.mem.Free(f, 0)
	}
	pc.frames = make(map[memsys.Frame]struct{})
}

// ResidentBytes returns the cache's current footprint.
func (pc *PageCache) ResidentBytes() uint64 {
	return uint64(len(pc.frames)) * memsys.PageSize
}

// FrameMoved implements memsys.Owner; page cache pages are not movable
// in this model, so it must never fire.
func (pc *PageCache) FrameMoved(old, new memsys.Frame, cookie uint64) {
	panic(check.Failf("workload: page cache frame moved"))
}

// FrameReclaimed implements memsys.Owner: cache pages are always
// droppable.
func (pc *PageCache) FrameReclaimed(f memsys.Frame, cookie uint64) bool {
	if _, ok := pc.frames[f]; !ok {
		return false
	}
	delete(pc.frames, f)
	return true
}

// FootprintReport implements memsys.FootprintReporter: the resident-set
// map at a rough 16 B per entry for key plus bucket overhead.
func (pc *PageCache) FootprintReport() (string, uint64) {
	return "workload/pagecache", uint64(len(pc.frames)) * 16
}

var _ memsys.Owner = (*PageCache)(nil)
var _ memsys.FootprintReporter = (*PageCache)(nil)

// Churner models a co-running application whose anonymous footprint
// oscillates over time — the dynamic memory pressure the paper notes is
// common in datacenters but approximates with static memhog levels
// (§4.3.1). Each Step grows the footprint by StepPages until MaxBytes,
// then shrinks it back to zero, and repeats. Its pages are movable
// (compaction may shuffle them) but belong to another process, so the
// graph application cannot reclaim them.
type Churner struct {
	mem       *memsys.Memory
	MaxBytes  uint64
	StepPages int

	frames  []memsys.Frame
	growing bool

	// Grows / Shrinks count completed phase transitions.
	Grows, Shrinks uint64
}

// FrameMoved implements memsys.Owner: compaction may migrate the
// churner's anonymous pages.
func (c *Churner) FrameMoved(old, new memsys.Frame, cookie uint64) {
	i := int(cookie)
	if i >= len(c.frames) || c.frames[i] != old {
		panic(check.Failf("workload: churner frame bookkeeping out of sync"))
	}
	c.frames[i] = new
}

// FrameReclaimed implements memsys.Owner: the co-runner's memory is hot
// (it would immediately fault it back), so eviction is vetoed.
func (c *Churner) FrameReclaimed(f memsys.Frame, cookie uint64) bool { return false }

// FootprintReport implements memsys.FootprintReporter: the churner's
// frame list.
func (c *Churner) FootprintReport() (string, uint64) {
	return "workload/churner", uint64(len(c.frames)) * 4
}

var _ memsys.Owner = (*Churner)(nil)
var _ memsys.FootprintReporter = (*Churner)(nil)

// NewChurner creates an idle churner (zero footprint, about to grow).
func NewChurner(mem *memsys.Memory, maxBytes uint64, stepPages int) *Churner {
	if stepPages <= 0 {
		stepPages = 256
	}
	return &Churner{mem: mem, MaxBytes: maxBytes, StepPages: stepPages, growing: true}
}

// Step advances the oscillation by one increment. Allocation failures
// flip it into the shrinking phase early (a real co-runner would stall
// or get OOM-throttled; either way it stops taking memory).
func (c *Churner) Step() {
	if c.growing {
		for i := 0; i < c.StepPages; i++ {
			if uint64(len(c.frames))*memsys.PageSize >= c.MaxBytes {
				c.growing = false
				c.Grows++
				return
			}
			f := c.mem.Alloc(0, memsys.Movable, c, uint64(len(c.frames)))
			if f == memsys.NoFrame {
				c.growing = false
				c.Grows++
				return
			}
			c.frames = append(c.frames, f)
		}
		return
	}
	for i := 0; i < c.StepPages; i++ {
		if len(c.frames) == 0 {
			c.growing = true
			c.Shrinks++
			return
		}
		f := c.frames[len(c.frames)-1]
		c.frames = c.frames[:len(c.frames)-1]
		c.mem.Free(f, 0)
	}
}

// ResidentBytes returns the churner's current footprint.
func (c *Churner) ResidentBytes() uint64 {
	return uint64(len(c.frames)) * memsys.PageSize
}

// Release frees everything (end of the co-runner).
func (c *Churner) Release() {
	for _, f := range c.frames {
		c.mem.Free(f, 0)
	}
	c.frames = c.frames[:0]
}
