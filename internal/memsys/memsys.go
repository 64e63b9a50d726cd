// Package memsys simulates the physical memory of one NUMA node: a frame
// array managed by a binary buddy allocator with Linux-like migrate
// types, plus the compaction and reclaim primitives the THP policy layer
// builds on.
//
// The simulation is deterministic: allocation always returns the
// lowest-addressed suitable block, so identical call sequences produce
// identical physical layouts (and therefore identical fragmentation
// behaviour) across runs.
package memsys

import (
	"fmt"
	"math/bits"
	"unsafe"

	"graphmem/internal/check"
	"graphmem/internal/ckpt"
)

// Fundamental geometry. The simulator uses x86-64 sizes throughout.
const (
	PageShift = 12
	PageSize  = 1 << PageShift // 4 KiB base page

	// HugeOrder is the buddy order of a 2MB huge page (512 base pages).
	HugeOrder = 9
	HugePages = 1 << HugeOrder
	HugeSize  = PageSize * HugePages

	// MaxOrder is the largest buddy block order tracked, matching
	// Linux's MAX_ORDER of 10 (4MB blocks).
	MaxOrder = 10
)

// MigrateType classifies a frame's mobility, mirroring the kernel's
// migratetype machinery. It determines whether compaction may move the
// frame and whether reclaim may evict it.
type MigrateType uint8

const (
	// Movable pages back application anonymous memory; compaction may
	// migrate them and reclaim may swap them out.
	Movable MigrateType = iota
	// Unmovable pages are kernel allocations that can neither move nor
	// be reclaimed. They are the durable source of fragmentation.
	Unmovable
	// Reclaimable pages (page cache) cannot move but can be dropped.
	Reclaimable
	// Pinned pages are mlocked user memory: movable by compaction but
	// never reclaimed or swapped (the paper's memhog+mlock).
	Pinned
)

func (m MigrateType) String() string {
	switch m {
	case Movable:
		return "movable"
	case Unmovable:
		return "unmovable"
	case Reclaimable:
		return "reclaimable"
	case Pinned:
		return "pinned"
	}
	return fmt.Sprintf("MigrateType(%d)", uint8(m))
}

// Frame is an index into the node's physical frame array.
type Frame uint32

// NoFrame is the sentinel for "no frame".
const NoFrame = Frame(^uint32(0))

// Owner receives callbacks when the memory system moves or evicts frames
// that belong to it. The virtual-memory layer implements this to keep
// page tables coherent with compaction and reclaim.
type Owner interface {
	// FrameMoved tells the owner that the contents of old now live in
	// new; the owner must redirect its mapping. cookie is the value
	// passed at allocation time.
	FrameMoved(old, new Frame, cookie uint64)
	// FrameReclaimed tells the owner that the frame was evicted (page
	// cache drop or swap-out). The owner must unmap it. Returns true
	// if the frame may actually be freed; false vetoes the eviction.
	FrameReclaimed(f Frame, cookie uint64) bool
}

// FootprintReporter is optionally implemented by owners (workload
// drivers) that can report their simulator-side footprint for the
// stats.Footprint per-subsystem breakdown. label names the row, bytes
// is the host memory the owner's bookkeeping costs.
type FootprintReporter interface {
	FootprintReport() (label string, bytes uint64)
}

// ownerRef is an index into Memory.owners; ref 0 is the nil owner. A
// node hosts a handful of distinct owners (one address space, a memhog,
// perhaps a page cache) spread across millions of frames, so frames
// store this small interned handle instead of the two-word interface.
// That keeps frameInfo pointer-free, which is what makes a fork's frame
// copy a flat memmove (no per-frame GC write barriers) with owner remapping done
// once per table entry instead of once per frame — the property the
// sharded engine's fork-per-shard bring-up depends on.
type ownerRef uint16

// frameInfo packs the per-frame metadata into a single 64-bit word so a
// paper-geometry node (100+ GB, tens of millions of frames) costs
// 8 B/frame of simulator memory instead of 16:
//
//	bits  0..47  cookie (48-bit owner mapping id; see CookieLimit)
//	bits 48..51  blockOrder (0..MaxOrder)
//	bits 52..53  mtype
//	bit  54      allocated
//	bits 55..63  owner ref (interned; up to maxOwnerRefs owners)
//
// The zero value is a free frame. The word stays pointer-free, so the
// frame array can live in copy-on-write pages that move as raw memory.
type frameInfo struct{ w uint64 }

// Compile-time budget assertion: the array length underflows (negative
// constant) if frameInfo ever outgrows 8 bytes.
var _ [8 - unsafe.Sizeof(frameInfo{})]byte

// Compile-time geometry assertion: a frame page holds at least one
// max-order block, so no block write and no 2MB compaction region (both
// aligned to their size) straddles a page. The constant overflows uint if
// the page ever shrinks below that.
const _ = uint(ckpt.PageLen - 1<<MaxOrder)

const (
	fiCookieBits = 48
	fiOrderShift = 48
	fiOrderMask  = uint64(0xF) << fiOrderShift
	fiMtypeShift = 52
	fiMtypeMask  = uint64(0x3) << fiMtypeShift
	fiAllocBit   = uint64(1) << 54
	fiOwnerShift = 55
	fiOwnerMask  = uint64(maxOwnerRefs-1) << fiOwnerShift

	// maxOwnerRefs bounds the interned owner table: frameInfo keeps
	// 64-55 = 9 bits for the owner ref.
	maxOwnerRefs = 1 << (64 - fiOwnerShift)
)

// CookieLimit is the exclusive upper bound on owner cookies: a cookie
// shares the packed frame word with the allocation metadata, so owners
// get 48 bits of mapping id. The VM layer's encoding (19-bit VMA id ·
// 28-bit page index · huge flag) fits a 1 TB VMA with room to spare.
const CookieLimit = uint64(1) << fiCookieBits

// packFrame builds the metadata word for one allocated frame.
func packFrame(order int, mtype MigrateType, owner ownerRef, cookie uint64) frameInfo {
	return frameInfo{fiAllocBit |
		cookie |
		uint64(order)<<fiOrderShift |
		uint64(mtype)<<fiMtypeShift |
		uint64(owner)<<fiOwnerShift}
}

func (fi frameInfo) allocated() bool    { return fi.w&fiAllocBit != 0 }
func (fi frameInfo) blockOrder() uint8  { return uint8(fi.w >> fiOrderShift & 0xF) }
func (fi frameInfo) mtype() MigrateType { return MigrateType(fi.w >> fiMtypeShift & 0x3) }
func (fi frameInfo) owner() ownerRef    { return ownerRef(fi.w >> fiOwnerShift) }
func (fi frameInfo) cookie() uint64     { return fi.w & (CookieLimit - 1) }

func (fi *frameInfo) setBlockOrder(order uint8) {
	fi.w = fi.w&^fiOrderMask | uint64(order)<<fiOrderShift
}

func (fi *frameInfo) setMtype(mt MigrateType) {
	fi.w = fi.w&^fiMtypeMask | uint64(mt)<<fiMtypeShift
}

func (fi *frameInfo) setOwnerCookie(owner ownerRef, cookie uint64) {
	fi.w = fi.w&^((CookieLimit-1)|fiOwnerMask) |
		cookie | uint64(owner)<<fiOwnerShift
}

// checkCookie rejects cookies that do not fit the packed budget. Owners
// choose their own cookie encodings, so this is a contract check at the
// allocation/retarget boundary rather than silent truncation.
func checkCookie(cookie uint64) {
	if cookie >= CookieLimit {
		panic(check.Failf("memsys: cookie %#x exceeds the %d-bit packed budget", cookie, fiCookieBits))
	}
}

// frameShadow is the reference unpacked frame layout (the pre-packing
// representation). When shadow mirroring is enabled — tests only — every
// metadata write is mirrored here so a differential harness can assert
// the packed encode/decode agrees with plain field stores across whole
// workloads.
type frameShadow struct {
	allocated  bool
	blockOrder uint8
	mtype      MigrateType
	owner      ownerRef
	cookie     uint64
}

// Stats counts allocator activity since construction.
type Stats struct {
	Allocs4K        uint64
	AllocsHuge      uint64
	FailedHuge      uint64
	Frees           uint64
	PagesCompacted  uint64 // pages migrated by compaction
	PagesReclaimed  uint64
	CompactionRuns  uint64
	CompactionFails uint64
}

// Memory models one NUMA node's physical memory.
//
// The frame array and the free bitmaps are copy-on-write paged arrays
// (ckpt.Paged) that a fork shares page by page. Every mutator claims the
// pages it is about to write (own, ownFrame) before the write helpers
// write them in place; claiming copies a page a fork still shares. Every
// write a mutator makes for frame f stays inside f's max-order block, so
// it lands in f's frame page and in the page covering f of each bitmap.
type Memory struct {
	nframes Frame
	frames  ckpt.Paged[frameInfo]

	// forked is set once the node has been forked or is a fork. Forks
	// set it atomically, since several goroutines may fork one node at
	// once; the node's own mutators read it plainly, as ckpt.Paged reads
	// its flags. Until it is set no page can be shared, and claiming is
	// this one load.
	forked *uint32

	// shadow, when non-nil, mirrors every frame-metadata write in the
	// unpacked reference layout (EnableShadow; test-only differential
	// harness). All mutation flows through the helpers below, so the
	// mirror stays exact without touching the read paths.
	shadow []frameShadow

	// freeBits[o] marks block-start frames of free order-o blocks.
	freeBits [MaxOrder + 1]ckpt.Paged[uint64]
	// freeCount[o] is the number of free blocks of exactly order o.
	freeCount [MaxOrder + 1]uint32
	// hint[o] is a search start position (word index) for order o.
	hint [MaxOrder + 1]uint32

	freePages uint64

	// Reclaim candidate FIFOs, one for page cache (Reclaimable) and
	// one for anonymous memory (Movable). Frames are enqueued when
	// they become owned and validated lazily on dequeue, so reclaim is
	// amortized O(pages reclaimed) instead of O(total frames), and the
	// eviction order approximates FIFO/LRU the way kswapd's inactive
	// list does. Entries may be stale or duplicated; dequeue filters.
	reclaimQ [2]frameQueue

	// allocByType counts allocated frames per migrate type, maintained
	// on every transition so the simcheck audit can verify conservation
	// against a full scan (no frame leaks or double-counts across
	// alloc/free/compaction/reclaim).
	allocByType [4]uint64

	// owners interns every distinct Owner ever registered; entry 0 is
	// nil. frameInfo.owner indexes this table (see ownerRef). The table
	// never shrinks — an owner that freed all its frames keeps its slot
	// — which is fine: a machine sees only a few distinct owners over
	// its whole life.
	owners []Owner

	stats Stats
}

// frameQueue is a simple FIFO of frame numbers with amortized O(1)
// operations.
type frameQueue struct {
	items []Frame
	head  int
}

func (q *frameQueue) push(f Frame) { q.items = append(q.items, f) }

func (q *frameQueue) pop() (Frame, bool) {
	if q.head >= len(q.items) {
		q.items = q.items[:0]
		q.head = 0
		return 0, false
	}
	f := q.items[q.head]
	q.head++
	if q.head > 1024 && q.head*2 > len(q.items) {
		q.items = append(q.items[:0], q.items[q.head:]...)
		q.head = 0
	}
	return f, true
}

func (q *frameQueue) len() int { return len(q.items) - q.head }

// ownerRefFor interns an owner, returning its table index. The table
// stays tiny (an address space, a memhog, a page cache…), so a linear
// scan with two-word interface compares beats any map — and allocates
// nothing once the owner is known.
func (m *Memory) ownerRefFor(o Owner) ownerRef {
	if o == nil {
		return 0
	}
	for i := 1; i < len(m.owners); i++ {
		if m.owners[i] == o {
			return ownerRef(i)
		}
	}
	if len(m.owners) == 0 {
		m.owners = append(m.owners, nil)
	}
	if len(m.owners) >= maxOwnerRefs {
		panic(check.Failf("memsys: more than %d distinct frame owners", maxOwnerRefs-1))
	}
	m.owners = append(m.owners, o)
	return ownerRef(len(m.owners) - 1)
}

// ownerAt resolves an interned owner handle; ref 0 is nil.
func (m *Memory) ownerAt(r ownerRef) Owner {
	if r == 0 {
		return nil
	}
	return m.owners[r]
}

// Owners returns the interned owner table minus the nil slot, in
// interning order (deterministic). Intended for introspection such as
// the footprint report, not hot paths; the slice is a copy.
func (m *Memory) Owners() []Owner {
	if len(m.owners) <= 1 {
		return nil
	}
	return append([]Owner(nil), m.owners[1:]...)
}

// queueIndexFor returns which reclaim queue (if any) a frame with the
// given type/owner belongs to.
func queueIndexFor(mt MigrateType, owner Owner) int {
	if owner == nil {
		return -1
	}
	switch mt {
	case Reclaimable:
		return 0
	case Movable:
		return 1
	}
	return -1
}

// enqueueReclaim registers an owned frame as a reclaim candidate.
func (m *Memory) enqueueReclaim(f Frame, mt MigrateType, owner Owner) {
	if qi := queueIndexFor(mt, owner); qi >= 0 {
		m.reclaimQ[qi].push(f)
	}
}

// New constructs a node with totalBytes of physical memory. totalBytes is
// rounded down to a whole number of max-order blocks so the buddy
// structure starts fully coalesced.
func New(totalBytes uint64) *Memory {
	blockBytes := uint64(PageSize) << MaxOrder
	totalBytes -= totalBytes % blockBytes
	if totalBytes == 0 {
		panic(check.Failf("memsys: memory smaller than one max-order block"))
	}
	n := Frame(totalBytes / PageSize)
	m := &Memory{
		nframes: n,
		frames:  ckpt.NewPaged[frameInfo](int(n)),
		forked:  new(uint32),
	}
	words := int((uint32(n) + 63) / 64)
	for o := 0; o <= MaxOrder; o++ {
		m.freeBits[o] = ckpt.NewPaged[uint64](words)
	}
	for f := Frame(0); f < n; f += 1 << MaxOrder {
		m.setFree(f, MaxOrder)
	}
	m.freePages = uint64(n)
	return m
}

// TotalPages returns the number of physical frames on the node.
func (m *Memory) TotalPages() uint64 { return uint64(m.nframes) }

// FreePages returns the number of free frames.
func (m *Memory) FreePages() uint64 { return m.freePages }

// Stats returns a copy of the allocator counters.
func (m *Memory) Stats() Stats { return m.stats }

// --- metadata write helpers ------------------------------------------

// own claims, for writing, frame f's frame page and the page covering f
// of every free bitmap.
func (m *Memory) own(f Frame) {
	if *m.forked != 0 {
		m.ownPages(f)
	}
}

// ownPages is own's copying half, kept out of line so own inlines.
func (m *Memory) ownPages(f Frame) {
	m.frames.Own(int(f))
	for o := range m.freeBits {
		m.freeBits[o].Own(int(f / 64))
	}
}

// ownFrame claims frame f's frame page alone, for the mutators that leave
// the free bitmaps untouched.
func (m *Memory) ownFrame(f Frame) {
	if *m.forked != 0 {
		m.frames.Own(int(f))
	}
}

// setFrames stamps npages consecutive frames as constituents of one
// allocated block. Every bulk metadata write funnels through here or
// setNumberedFrames so the optional shadow mirror stays exact. A block
// lies in one frame page.
func (m *Memory) setFrames(f, npages Frame, order int, mtype MigrateType, ref ownerRef, cookie uint64) {
	fi := packFrame(order, mtype, ref, cookie)
	blk := m.frames.Mut(int(f), int(f+npages))
	for i := range blk {
		blk[i] = fi
	}
	if m.shadow != nil {
		s := frameShadow{allocated: true, blockOrder: uint8(order), mtype: mtype, owner: ref, cookie: cookie}
		for i := Frame(0); i < npages; i++ {
			m.shadow[f+i] = s
		}
	}
}

// setNumberedFrames stamps npages consecutive frames as order-0
// allocations whose cookies are their own frame numbers (AllocLowest),
// mirrored like setFrames. The frames lie in one frame page.
func (m *Memory) setNumberedFrames(f, npages Frame, mtype MigrateType, ref ownerRef) {
	fi := packFrame(0, mtype, ref, uint64(f))
	blk := m.frames.Mut(int(f), int(f+npages))
	for i := range blk {
		blk[i] = frameInfo{fi.w + uint64(i)}
	}
	if m.shadow != nil {
		for i := Frame(0); i < npages; i++ {
			m.shadow[f+i] = frameShadow{allocated: true, mtype: mtype, owner: ref, cookie: uint64(f + i)}
		}
	}
}

// clearFrames zeroes the metadata of npages consecutive frames with a
// single range clear (the zero word is a free frame), replacing the
// per-frame stores the free/evacuate/reclaim paths used to do.
func (m *Memory) clearFrames(f, npages Frame) {
	clear(m.frames.Mut(int(f), int(f+npages)))
	if m.shadow != nil {
		clear(m.shadow[f : f+npages])
	}
}

// EnableShadow starts mirroring every frame-metadata write into a
// reference unpacked store, seeded from the current decoded state. Tests
// use this as a differential oracle for the packed representation; it is
// never enabled on the simulation path (it doubles frame-metadata
// memory).
func (m *Memory) EnableShadow() {
	m.shadow = make([]frameShadow, m.nframes)
	for lo, n := 0, m.frames.Len(); lo < n; {
		s := m.frames.Span(lo, n)
		for i, fi := range s {
			if fi.w != 0 {
				m.shadow[lo+i] = unpack(fi)
			}
		}
		lo += len(s)
	}
}

// unpack decodes a packed frame word into the shadow's reference layout.
func unpack(fi frameInfo) frameShadow {
	return frameShadow{fi.allocated(), fi.blockOrder(), fi.mtype(), fi.owner(), fi.cookie()}
}

// ShadowCheck compares every frame's decoded packed metadata against the
// shadow reference store, returning the first mismatch. It is an error
// to call it without EnableShadow.
func (m *Memory) ShadowCheck() error {
	if m.shadow == nil {
		return fmt.Errorf("memsys: ShadowCheck without EnableShadow")
	}
	return m.shadowCheck()
}

func (m *Memory) shadowCheck() error {
	for lo, n := 0, m.frames.Len(); lo < n; {
		s := m.frames.Span(lo, n)
		for i, fi := range s {
			if got, f := unpack(fi), lo+i; got != m.shadow[f] {
				return fmt.Errorf("frame %d: packed decodes to %+v but shadow reference says %+v", f, got, m.shadow[f])
			}
		}
		lo += len(s)
	}
	return nil
}

// --- bitset helpers -------------------------------------------------

func (m *Memory) setFree(f Frame, order int) {
	m.freeBits[order].Mut(int(f/64), int(f/64)+1)[0] |= 1 << (f % 64)
	m.freeCount[order]++
}

func (m *Memory) clearFree(f Frame, order int) {
	m.freeBits[order].Mut(int(f/64), int(f/64)+1)[0] &^= 1 << (f % 64)
	m.freeCount[order]--
}

func (m *Memory) isFree(f Frame, order int) bool {
	return m.freeBits[order].At(int(f/64))&(1<<(f%64)) != 0
}

// firstSetWord returns the index of the first non-zero word of a free
// bitmap in [lo, hi) and the word itself, or -1.
func firstSetWord(words *ckpt.Paged[uint64], lo, hi int) (int, uint64) {
	for lo < hi {
		s := words.Span(lo, hi)
		for i, w := range s {
			if w != 0 {
				return lo + i, w
			}
		}
		lo += len(s)
	}
	return -1, 0
}

// lowestFree returns the lowest-addressed free block of the given order,
// or NoFrame. The per-order hint makes repeated allocation amortized
// cheap without sacrificing determinism.
func (m *Memory) lowestFree(order int) Frame {
	if m.freeCount[order] == 0 {
		return NoFrame
	}
	words := &m.freeBits[order]
	n := words.Len()
	start := int(m.hint[order])
	if start >= n {
		start = 0
	}
	// Scan from the hint to the end, then wrap. Because frees can land
	// below the hint this is a full circular scan in the worst case.
	w, word := firstSetWord(words, start, n)
	if w < 0 {
		w, word = firstSetWord(words, 0, start)
	}
	if w < 0 {
		return NoFrame
	}
	m.hint[order] = uint32(w)
	return Frame(w*64 + bits.TrailingZeros64(word))
}

// --- allocation ------------------------------------------------------

// Alloc allocates a 2^order-page block of the given migrate type. owner
// and cookie identify the mapping for compaction/reclaim callbacks and
// may be nil/0 for untracked memory (e.g. kernel allocations). It
// returns the first frame of the block, or NoFrame if no block of
// sufficient order is free (the caller decides whether to compact,
// reclaim, or fall back).
func (m *Memory) Alloc(order int, mtype MigrateType, owner Owner, cookie uint64) Frame {
	if order < 0 || order > MaxOrder {
		panic(check.Failf("memsys: bad order %d", order))
	}
	checkCookie(cookie)
	f := m.allocBlock(order)
	if f == NoFrame {
		if order >= HugeOrder {
			m.stats.FailedHuge++
		}
		return NoFrame
	}
	npages := Frame(1) << order
	ref := m.ownerRefFor(owner)
	m.setFrames(f, npages, order, mtype, ref, cookie)
	if order < HugeOrder {
		for i := Frame(0); i < npages; i++ {
			m.enqueueReclaim(f+i, mtype, owner)
		}
	}
	m.allocByType[mtype] += uint64(npages)
	m.freePages -= uint64(npages)
	if order >= HugeOrder {
		m.stats.AllocsHuge++
	} else {
		m.stats.Allocs4K++
	}
	return f
}

// AllocAt allocates the specific 2^order block starting at frame f, if
// that exact range is currently free (possibly inside a larger free
// block, which is split). Returns false if any part is allocated. Used
// to place allocations at chosen physical addresses, e.g. scattering
// non-movable "kernel" pages when modelling an aged system.
func (m *Memory) AllocAt(f Frame, order int, mtype MigrateType, owner Owner, cookie uint64) bool {
	if f%(1<<order) != 0 || f+(1<<order) > m.nframes {
		return false
	}
	checkCookie(cookie)
	m.own(f)
	// Find the free block containing f.
	found := -1
	var start Frame
	for o := order; o <= MaxOrder; o++ {
		aligned := f &^ (Frame(1)<<o - 1)
		if m.isFree(aligned, o) {
			found, start = o, aligned
			break
		}
	}
	if found < 0 {
		return false
	}
	m.clearFree(start, found)
	// Split down, keeping the half that contains f.
	for o := found; o > order; {
		o--
		half := start + Frame(1)<<o
		if f >= half {
			m.setFree(start, o)
			start = half
		} else {
			m.setFree(half, o)
		}
	}
	npages := Frame(1) << order
	ref := m.ownerRefFor(owner)
	m.setFrames(f, npages, order, mtype, ref, cookie)
	if order < HugeOrder {
		for i := Frame(0); i < npages; i++ {
			m.enqueueReclaim(f+i, mtype, owner)
		}
	}
	m.allocByType[mtype] += uint64(npages)
	m.freePages -= uint64(npages)
	if order >= HugeOrder {
		m.stats.AllocsHuge++
	} else {
		m.stats.Allocs4K++
	}
	return true
}

// AllocLowest allocates the n lowest-addressed free frames as order-0
// blocks of type mtype owned by owner, each with its own frame number as
// its cookie, and returns how many it allocated: fewer than n only when
// the node runs out. It leaves exactly the state AllocAt(f, 0, mtype,
// owner, uint64(f)) over every free f in ascending order leaves, but takes
// a whole free buddy block at a time, calling taken with each block's
// allocated frames [f, f+npages) in ascending order. The walk skips an
// allocated block by its order and splits only the block where n runs
// out, whose free upper part is the aligned decomposition AllocAt's
// splits would leave.
func (m *Memory) AllocLowest(n uint64, mtype MigrateType, owner Owner, taken func(f, npages Frame)) uint64 {
	var got uint64
	var ref ownerRef
	qi := queueIndexFor(mtype, owner)
	// f is always the head of a block: allocated and free blocks tile
	// the node, aligned to their size, and the walk steps over whole ones.
	for f := Frame(0); f < m.nframes && got < n; {
		if fi := m.frames.At(int(f)); fi.allocated() {
			f += 1 << fi.blockOrder()
			continue
		}
		o := min(bits.TrailingZeros32(uint32(f)), MaxOrder)
		for o >= 0 && !m.isFree(f, o) {
			o--
		}
		if o < 0 {
			panic(check.Failf("memsys: free frame %d heads no free block", f))
		}
		size := Frame(1) << o
		k := Frame(min(uint64(size), n-got))
		m.own(f)
		m.clearFree(f, o)
		for q := f + k; q < f+size; q += 1 << bits.TrailingZeros32(uint32(q)) {
			m.setFree(q, bits.TrailingZeros32(uint32(q)))
		}
		if got == 0 {
			ref = m.ownerRefFor(owner)
		}
		m.setNumberedFrames(f, k, mtype, ref)
		if qi >= 0 {
			for i := Frame(0); i < k; i++ {
				m.reclaimQ[qi].push(f + i)
			}
		}
		m.allocByType[mtype] += uint64(k)
		m.freePages -= uint64(k)
		m.stats.Allocs4K += uint64(k)
		got += uint64(k)
		taken(f, k)
		f += size
	}
	return got
}

// allocBlock finds and removes a free block of at least the given order,
// splitting larger blocks as needed, and returns its first frame.
func (m *Memory) allocBlock(order int) Frame {
	for o := order; o <= MaxOrder; o++ {
		f := m.lowestFree(o)
		if f == NoFrame {
			continue
		}
		m.own(f)
		m.clearFree(f, o)
		// Split down to the requested order, freeing upper halves.
		for o > order {
			o--
			m.setFree(f+Frame(1)<<o, o)
		}
		return f
	}
	return NoFrame
}

// Free releases a 2^order-page block previously returned by Alloc. The
// block is coalesced with free buddies up to MaxOrder.
func (m *Memory) Free(f Frame, order int) {
	npages := Frame(1) << order
	if f+npages > m.nframes {
		panic(check.Failf("memsys: free out of range"))
	}
	m.own(f)
	for i, fi := range m.frames.Span(int(f), int(f+npages)) {
		if !fi.allocated() {
			panic(check.Failf("memsys: double free of frame %d", f+Frame(i)))
		}
		m.allocByType[fi.mtype()]--
	}
	m.clearFrames(f, npages)
	m.freePages += uint64(npages)
	m.stats.Frees++
	m.freeBlock(f, order)
}

func (m *Memory) freeBlock(f Frame, order int) {
	for order < MaxOrder {
		buddy := f ^ (Frame(1) << order)
		if buddy >= m.nframes || !m.isFree(buddy, order) {
			break
		}
		m.clearFree(buddy, order)
		if buddy < f {
			f = buddy
		}
		order++
	}
	m.setFree(f, order)
}

// SplitAllocated rewrites the metadata of an allocated 2^order block so
// that each constituent page becomes an independent order-0 allocation.
// This is how huge page demotion and the frag utility's page splitting
// are modelled: the frames stay allocated but may now be freed, moved,
// or reclaimed one page at a time.
func (m *Memory) SplitAllocated(f Frame, order int) {
	npages := Frame(1) << order
	m.ownFrame(f)
	blk := m.frames.Mut(int(f), int(f+npages))
	for i := range blk {
		if !blk[i].allocated() {
			panic(check.Failf("memsys: SplitAllocated on free frame"))
		}
		blk[i].setBlockOrder(0)
	}
	if m.shadow != nil {
		for i := Frame(0); i < npages; i++ {
			m.shadow[f+i].blockOrder = 0
		}
	}
}

// SetOwner updates the owner callback and cookie for one frame. The VM
// layer uses this when it remaps a frame (e.g. after promotion).
func (m *Memory) SetOwner(f Frame, owner Owner, cookie uint64) {
	m.ownFrame(f)
	fi := &m.frames.Mut(int(f), int(f)+1)[0]
	if !fi.allocated() {
		panic(check.Failf("memsys: SetOwner on free frame"))
	}
	checkCookie(cookie)
	ref := m.ownerRefFor(owner)
	fi.setOwnerCookie(ref, cookie)
	if m.shadow != nil {
		m.shadow[f].owner = ref
		m.shadow[f].cookie = cookie
	}
	// Huge-block head frames are enqueued too: when reclaim selects
	// one, the owner responds by demoting the mapping (Linux's
	// split-THP-under-reclaim), which turns the constituents into
	// ordinary candidates.
	m.enqueueReclaim(f, fi.mtype(), owner)
}

// SetMigrateType changes the migrate type of one allocated frame.
func (m *Memory) SetMigrateType(f Frame, mt MigrateType) {
	m.ownFrame(f)
	fi := &m.frames.Mut(int(f), int(f)+1)[0]
	if !fi.allocated() {
		panic(check.Failf("memsys: SetMigrateType on free frame"))
	}
	m.allocByType[fi.mtype()]--
	m.allocByType[mt]++
	fi.setMtype(mt)
	if m.shadow != nil {
		m.shadow[f].mtype = mt
	}
}

// MigrateTypeOf reports the migrate type of an allocated frame.
func (m *Memory) MigrateTypeOf(f Frame) MigrateType { return m.frames.At(int(f)).mtype() }

// Allocated reports whether frame f is currently allocated.
func (m *Memory) Allocated(f Frame) bool { return m.frames.At(int(f)).allocated() }

// --- fragmentation metrics -------------------------------------------

// FreeHugeBlocks returns how many order>=HugeOrder free blocks exist,
// i.e. how many huge pages could be allocated right now without any
// compaction or reclaim.
func (m *Memory) FreeHugeBlocks() uint64 {
	var n uint64
	for o := HugeOrder; o <= MaxOrder; o++ {
		n += uint64(m.freeCount[o]) << (o - HugeOrder)
	}
	return n
}

// FragmentationIndex returns the fraction of free memory that is NOT
// part of a huge-page-sized free block, in [0,1]. This matches the
// paper's definition of fragmentation level: the percentage of available
// memory in which no contiguous 2MB region exists.
func (m *Memory) FragmentationIndex() float64 {
	if m.freePages == 0 {
		return 0
	}
	inHuge := m.FreeHugeBlocks() * HugePages
	return 1 - float64(inHuge)/float64(m.freePages)
}

// FootprintBytes reports the simulator-side bytes backing this node's
// physical-memory metadata — frame words, free bitmaps, reclaim queues
// and the owner table — for the stats.Footprint report. Slices count
// by length, so the report is a function of state, not of how it was
// reached. Shadow mirroring is test-only and deliberately excluded.
func (m *Memory) FootprintBytes() uint64 {
	n := uint64(m.nframes) * uint64(unsafe.Sizeof(frameInfo{}))
	for o := 0; o <= MaxOrder; o++ {
		n += uint64(m.freeBits[o].Len()) * 8
	}
	n += uint64(len(m.reclaimQ[0].items)+len(m.reclaimQ[1].items)) * 4
	return n + uint64(len(m.owners))*16
}

// --- compaction -------------------------------------------------------

// CompactionResult reports what one compaction attempt did.
type CompactionResult struct {
	Succeeded bool
	Migrated  int   // pages moved
	Block     Frame // first frame of the created huge block, if Succeeded
}

// TryCompactHuge attempts to create one free huge-page-sized block by
// migrating movable pages out of the most nearly-free 2MB-aligned
// region, mimicking the kernel's compaction scanner. On success the
// resulting block is left FREE (the caller allocates it). The number of
// migrated pages is returned so the caller can charge cycle costs.
//
// The scan is deterministic: regions are considered in ascending address
// order and the candidate needing the fewest migrations wins (ties go to
// the lower address).
func (m *Memory) TryCompactHuge() CompactionResult {
	m.stats.CompactionRuns++
	best := NoFrame
	bestCost := HugePages + 1
	for base := Frame(0); base < m.nframes; base += HugePages {
		cost, ok := m.regionCompactionCost(base)
		if ok && cost < bestCost {
			best, bestCost = base, cost
			if cost == 0 {
				break
			}
		}
	}
	if best == NoFrame {
		m.stats.CompactionFails++
		return CompactionResult{}
	}
	migrated, ok := m.evacuateRegion(best)
	if !ok {
		m.stats.CompactionFails++
		return CompactionResult{Migrated: migrated}
	}
	m.stats.PagesCompacted += uint64(migrated)
	return CompactionResult{Succeeded: true, Migrated: migrated, Block: best}
}

// regionCompactionCost returns how many pages must be migrated to empty
// the 2MB region starting at base, and whether emptying is possible at
// all (false if any page is unmovable/reclaimable/pinned-unmovable).
func (m *Memory) regionCompactionCost(base Frame) (int, bool) {
	cost := 0
	for _, fi := range m.frames.Span(int(base), int(base+HugePages)) {
		if !fi.allocated() {
			continue
		}
		if fi.blockOrder() >= HugeOrder {
			// A live huge page occupies this region; nothing to gain.
			return 0, false
		}
		switch fi.mtype() {
		case Movable, Pinned:
			cost++
		default:
			return 0, false
		}
	}
	if cost == HugePages {
		// Fully allocated; evacuating it buys nothing unless we have
		// 512 free pages elsewhere, and the kernel would not pick it.
		return 0, false
	}
	return cost, true
}

// evacuateRegion migrates every movable page out of the 2MB region at
// base to free frames outside the region, then returns the region to the
// free lists as one huge block. Migration destinations are order-0
// allocations, which is how the kernel's migration allocator behaves
// under pressure.
func (m *Memory) evacuateRegion(base Frame) (migrated int, ok bool) {
	region := m.frames.Span(int(base), int(base+HugePages))
	for i := Frame(0); i < HugePages; i++ {
		f := base + i
		fi := region[i]
		if !fi.allocated() {
			continue
		}
		dst := m.allocOutside(base)
		if dst == NoFrame {
			return migrated, false // out of destination memory mid-compaction
		}
		// Move metadata, notify owner, free the source frame.
		m.setFrames(dst, 1, 0, fi.mtype(), fi.owner(), fi.cookie())
		owner := m.ownerAt(fi.owner())
		m.enqueueReclaim(dst, fi.mtype(), owner)
		m.freePages-- // dst leaves the free pool
		if owner != nil {
			owner.FrameMoved(f, dst, fi.cookie())
		}
		m.own(f)
		m.clearFrames(f, 1)
		m.freePages++
		m.freeBlock(f, 0)
		migrated++
		// Claiming f may have replaced the region's page with a
		// private copy.
		region = m.frames.Span(int(base), int(base+HugePages))
	}
	return migrated, true
}

// allocOutside grabs one free frame that is not inside the 2MB region at
// base. It deliberately does not split huge free blocks if any smaller
// block exists, preserving contiguity like the kernel's fallback order.
func (m *Memory) allocOutside(base Frame) Frame {
	for o := 0; o <= MaxOrder; o++ {
		f := m.lowestFree(o)
		if f == NoFrame {
			continue
		}
		if f >= base && f < base+HugePages {
			// The lowest free block lives inside the region being
			// evacuated; look for the next one at this order.
			f = m.lowestFreeExcluding(o, base)
			if f == NoFrame {
				continue
			}
		}
		m.own(f)
		m.clearFree(f, o)
		for o > 0 {
			o--
			m.setFree(f+Frame(1)<<o, o)
		}
		// The frame is off the free lists but metadata and freePages
		// accounting are the caller's responsibility.
		return f
	}
	return NoFrame
}

// lowestFreeExcluding is lowestFree but skips blocks inside the 2MB
// region at base.
func (m *Memory) lowestFreeExcluding(order int, base Frame) Frame {
	words := &m.freeBits[order]
	for lo, n := 0, words.Len(); lo < n; {
		s := words.Span(lo, n)
		for i, word := range s {
			for word != 0 {
				bit := bits.TrailingZeros64(word)
				f := Frame((lo+i)*64 + bit)
				if f < base || f >= base+HugePages {
					return f
				}
				word &^= 1 << bit
			}
		}
		lo += len(s)
	}
	return NoFrame
}

// --- reclaim ----------------------------------------------------------

// ReclaimPages tries to evict up to want reclaimable or swappable frames
// (page cache first, then movable anonymous memory via owner callbacks),
// in ascending address order. It returns the number of page-cache frames
// dropped (cheap) and anonymous frames swapped out (expensive I/O)
// separately so the caller can charge the right costs. Pinned and
// unmovable frames are never touched.
func (m *Memory) ReclaimPages(want int) (dropped, swapped int) {
	if want <= 0 {
		return 0, 0
	}
	// Iterate the two passes while they make progress: splitting a huge
	// mapping frees nothing itself but enqueues 512 fresh candidates,
	// which the next round harvests. Progress is either pages freed or
	// queue growth (a split happened); anything else is a dead end.
	prevQ := -1
	for dropped+swapped < want {
		// Pass 1: page cache (no I/O on the simulated critical path;
		// the data was a clean copy of file contents).
		d := m.reclaimPass(Reclaimable, want-dropped-swapped)
		dropped += d
		var s int
		if dropped+swapped < want {
			// Pass 2: anonymous movable memory (swap-out, owner may
			// veto or split-and-requeue).
			s = m.reclaimPass(Movable, want-dropped-swapped)
			swapped += s
		}
		if d == 0 && s == 0 {
			qlen := m.reclaimQ[0].len() + m.reclaimQ[1].len()
			if qlen == prevQ {
				break // no reclaims and no splits: truly stuck
			}
			prevQ = qlen
		}
	}
	m.stats.PagesReclaimed += uint64(dropped + swapped)
	return dropped, swapped
}

func (m *Memory) reclaimPass(mt MigrateType, want int) int {
	qi := 0
	if mt == Movable {
		qi = 1
	}
	q := &m.reclaimQ[qi]
	got := 0
	// Each pop either reclaims a page, discards a stale entry, or
	// rotates a vetoed page to the back; the pop budget guarantees the
	// pass visits each current entry at most once.
	budget := q.len()
	for got < want && budget > 0 {
		budget--
		f, ok := q.pop()
		if !ok {
			break
		}
		fi := m.frames.At(int(f))
		if !fi.allocated() || fi.mtype() != mt || fi.owner() == 0 {
			continue // stale entry
		}
		if !m.ownerAt(fi.owner()).FrameReclaimed(f, fi.cookie()) {
			// Vetoed outright, or a huge mapping that the owner
			// demoted in place (its constituents are now queued):
			// rotate to the back like an inactive-list page.
			q.push(f)
			continue
		}
		// Re-read: the owner's callback may have split the block.
		fi = m.frames.At(int(f))
		if fi.blockOrder() >= HugeOrder {
			panic(check.Failf("memsys: owner approved freeing a huge block constituent"))
		}
		m.allocByType[fi.mtype()]--
		m.own(f)
		m.clearFrames(f, 1)
		m.freePages++
		m.freeBlock(f, 0)
		got++
	}
	return got
}

// ForEachAllocated visits every allocated frame in address order. It is
// intended for diagnostics and tests, not hot paths.
func (m *Memory) ForEachAllocated(fn func(f Frame, mt MigrateType)) {
	for lo, n := 0, m.frames.Len(); lo < n; {
		s := m.frames.Span(lo, n)
		for i, fi := range s {
			if fi.allocated() {
				fn(Frame(lo+i), fi.mtype())
			}
		}
		lo += len(s)
	}
}

// CheckInvariants validates internal consistency and returns an error
// describing the first violation. Tests call this after operation
// sequences, and the simcheck runtime sanitizer (check.Audit) calls it
// at policy-decision boundaries. Beyond free accounting and
// bitset/metadata agreement it verifies three structural properties:
//
//   - free lists are disjoint: no frame is covered by two free blocks;
//   - buddies are coalesced: no two same-order buddy blocks are both
//     free (Free merges eagerly, so such a pair means a missed merge);
//   - per-migratetype conservation: the incrementally-maintained
//     allocByType counters match a full scan of frame metadata.
//
// When the shadow mirror is enabled the packed metadata is additionally
// diffed against the unpacked reference store.
func (m *Memory) CheckInvariants() error {
	// coverage marks frames claimed by some free block during the scan,
	// to detect overlapping free blocks.
	coverage := make([]uint64, (uint32(m.nframes)+63)/64)
	covered := func(f Frame) bool { return coverage[f/64]&(1<<(f%64)) != 0 }
	cover := func(f Frame) { coverage[f/64] |= 1 << (f % 64) }

	var freeFromBits uint64
	for o := 0; o <= MaxOrder; o++ {
		var count uint32
		words := &m.freeBits[o]
		for lo, n := 0, words.Len(); lo < n; {
			s := words.Span(lo, n)
			for w, word := range s {
				for word != 0 {
					bit := bits.TrailingZeros64(word)
					word &^= 1 << bit
					f := Frame((lo+w)*64 + bit)
					count++
					if err := m.checkFreeBlock(f, o, covered, cover); err != nil {
						return err
					}
				}
			}
			lo += len(s)
		}
		if count != m.freeCount[o] {
			return fmt.Errorf("order %d: freeCount=%d but bitset has %d", o, m.freeCount[o], count)
		}
		freeFromBits += uint64(count) << o
	}
	if freeFromBits != m.freePages {
		return fmt.Errorf("freePages=%d but bitsets say %d", m.freePages, freeFromBits)
	}
	var allocated uint64
	var byType [4]uint64
	for lo, n := 0, m.frames.Len(); lo < n; {
		s := m.frames.Span(lo, n)
		for i, fi := range s {
			if fi.allocated() {
				allocated++
				byType[fi.mtype()]++
			} else if f := Frame(lo + i); !covered(f) {
				return fmt.Errorf("frame %d neither allocated nor inside any free block", f)
			}
		}
		lo += len(s)
	}
	if allocated+m.freePages != uint64(m.nframes) {
		return fmt.Errorf("allocated %d + free %d != total %d", allocated, m.freePages, m.nframes)
	}
	for mt, n := range byType {
		if n != m.allocByType[mt] {
			return fmt.Errorf("migratetype %s: counter says %d frames but scan found %d",
				MigrateType(mt), m.allocByType[mt], n)
		}
	}
	if m.shadow != nil {
		if err := m.shadowCheck(); err != nil {
			return err
		}
	}
	return nil
}

// checkFreeBlock audits one free order-o block at f for CheckInvariants:
// aligned, coalesced with its buddy, inside memory, holding no allocated
// frame and overlapping no other free block (covered/cover track the
// frames earlier blocks claimed). An aligned block lies in one frame
// page, so its frames are one span.
func (m *Memory) checkFreeBlock(f Frame, o int, covered func(Frame) bool, cover func(Frame)) error {
	if f%(1<<o) != 0 {
		return fmt.Errorf("order-%d free block at unaligned frame %d", o, f)
	}
	if o < MaxOrder {
		buddy := f ^ (Frame(1) << o)
		if buddy < m.nframes && m.isFree(buddy, o) {
			return fmt.Errorf("uncoalesced buddies: order-%d blocks %d and %d both free", o, f, buddy)
		}
	}
	if uint64(f)+1<<o > uint64(m.nframes) {
		return fmt.Errorf("free block %d order %d exceeds memory", f, o)
	}
	for i, fi := range m.frames.Span(int(f), int(f)+1<<o) {
		g := f + Frame(i)
		if fi.allocated() {
			return fmt.Errorf("frame %d allocated but inside free block %d order %d", g, f, o)
		}
		if covered(g) {
			return fmt.Errorf("frame %d covered by two free blocks (second: block %d order %d)", g, f, o)
		}
		cover(g)
	}
	return nil
}
