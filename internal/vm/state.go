package vm

import (
	"fmt"
	"slices"

	"graphmem/internal/check"
	"graphmem/internal/ckpt"
	"graphmem/internal/memsys"
)

// State walk (DESIGN.md §5e). Five pieces of an address space are not
// walked, because they are bindings or derived lookup state rather than
// mapping state: mem, the Shootdown callback, the lastVMA lookup cache,
// the byID index and each VMA's space back-pointer. Bind sets them on a
// fork or a decoded space. The sparse chunk directories walk sparsely:
// nil spans cost nothing but their absence from the index list, and
// materialized chunks move their fixed arrays as raw memory.
//
// A decoded space is validated against every structural invariant the
// mapping mutators rely on without checking — VMA ordering and cookie
// budgets, chunk directory geometry, present4k counts against the page
// arrays, the swap-bitmap population against SwappedOut, page-table
// conservation — failing the Decoder instead of panicking on hostile
// images. Frame numbers cannot be bounds-checked here (the physical node
// decodes after the space it owns); CheckFrames covers them once Bind
// has attached memory.

func (pc *pageChunk) state(w *ckpt.Walker) {
	ckpt.Fixed(w, &pc.base)
	ckpt.Fixed(w, &pc.swap)
}

func (c *vmaChunk) state(w *ckpt.Walker) {
	ckpt.Fixed(w, &c.advice)
	ckpt.Fixed(w, &c.huge)
	ckpt.Fixed(w, &c.present4k)
	ckpt.Fixed(w, &c.heat)
	ckpt.Sparse(w, c.pages[:], (*pageChunk).state, "vm: page chunk")
}

func (v *VMA) state(w *ckpt.Walker) {
	w.String(&v.Name)
	w.U64(&v.Base)
	w.U64(&v.Bytes)
	w.Int(&v.Pages)
	w.Int(&v.StatsTag)
	w.U32(&v.id)
	_ = v.space // back-pointer; set by the space's Bind
	if v.dead {
		// The live VMA list excludes dead entries by construction.
		w.Failf("vm: dead VMA %q in live list", v.Name)
	}
	if d := w.Decoder(); d != nil && !v.checkExtent(d) {
		return
	}
	nChunks := len(v.chunks)
	w.Len(&nChunks, 1<<30)
	switch {
	case w.Cloning():
		v.chunks = slices.Clone(v.chunks)
	case w.Decoder() != nil:
		regions := (v.Pages + RegionPages - 1) / RegionPages
		if nChunks != (regions+chunkRegions-1)>>chunkShift {
			w.Failf("vm: VMA %q: %d chunk slots for %d regions", v.Name, nChunks, regions)
			return
		}
		v.chunks = make([]*vmaChunk, nChunks)
	}
	ckpt.Sparse(w, v.chunks, (*vmaChunk).state, fmt.Sprintf("vm: VMA %q chunk", v.Name))
	ckpt.Slice(w, &v.ptFrames)
}

// checkExtent fails the decoder unless a decoded VMA's extent and id
// fit the cookie encoding, before anything is sized from them.
func (v *VMA) checkExtent(d *ckpt.Decoder) bool {
	if v.Pages <= 0 || uint64(v.Pages) > cookieIndexMask+1 ||
		v.Bytes == 0 || v.Pages != int((v.Bytes+memsys.PageSize-1)/memsys.PageSize) {
		d.Failf("vm: VMA %q: %d pages / %d bytes out of range", v.Name, v.Pages, v.Bytes)
		return false
	}
	if v.Base%memsys.HugeSize != 0 {
		d.Failf("vm: VMA %q base %#x not 2MB aligned", v.Name, v.Base)
		return false
	}
	if v.id == 0 || uint64(v.id) > cookieIDMask {
		d.Failf("vm: VMA %q id %d outside the cookie budget", v.Name, v.id)
		return false
	}
	return d.Err() == nil
}

// validate checks the per-region bookkeeping of a decoded VMA and
// returns the number of swap-resident pages it carries.
func (v *VMA) validate(d *ckpt.Decoder) (swapped uint64) {
	if d.Err() != nil {
		return 0
	}
	regions := v.Regions()
	for ci, c := range v.chunks {
		if c == nil {
			continue
		}
		for cr := 0; cr < chunkRegions; cr++ {
			r := ci<<chunkShift + cr
			huge := c.huge[cr] != memsys.NoFrame
			pc := c.pages[cr]
			if r >= regions {
				if huge || pc != nil || c.present4k[cr] != 0 || c.advice[cr] != AdviceDefault || c.heat[cr] != 0 {
					d.Failf("vm: VMA %q has state beyond its %d regions", v.Name, regions)
					return swapped
				}
				continue
			}
			if huge {
				if pc != nil || c.present4k[cr] != 0 {
					d.Failf("vm: VMA %q region %d is huge-mapped but carries 4K state", v.Name, r)
					return swapped
				}
				if (r+1)*RegionPages > v.Pages {
					d.Failf("vm: VMA %q partial tail region %d is huge-mapped", v.Name, r)
					return swapped
				}
				continue
			}
			if pc == nil {
				if c.present4k[cr] != 0 {
					d.Failf("vm: VMA %q region %d counts %d pages with no page state", v.Name, r, c.present4k[cr])
					return swapped
				}
				continue
			}
			lo := r * RegionPages
			var present uint16
			for j := 0; j < RegionPages; j++ {
				mapped := pc.base[j] != memsys.NoFrame
				if lo+j >= v.Pages {
					if mapped || pc.swapped(j) {
						d.Failf("vm: VMA %q has a mapping beyond its %d pages", v.Name, v.Pages)
						return swapped
					}
					continue
				}
				if mapped {
					present++
					if pc.swapped(j) {
						d.Failf("vm: VMA %q page %d both mapped and swapped", v.Name, lo+j)
						return swapped
					}
				} else if pc.swapped(j) {
					swapped++
				}
			}
			if present != c.present4k[cr] {
				d.Failf("vm: VMA %q region %d counts %d pages but %d are mapped", v.Name, r, c.present4k[cr], present)
				return swapped
			}
		}
	}
	return swapped
}

func (as *AddressSpace) state(w *ckpt.Walker) {
	_, _, _, _ = as.mem, as.Shootdown, as.lastVMA, as.byID // bindings and lookup state; set by Bind
	ckpt.Each(w, &as.vmas, 1<<20, func(p **VMA, w *ckpt.Walker) { ckpt.Ptr(w, p, (*VMA).state) })
	w.U64(&as.nextBase)
	w.U32(&as.nextID)
	w.Bool(&as.SimPageTables)
	w.U64(&as.PageTableBytes)
	ckpt.Num(w, &as.pml4)
	ckpt.Num(w, &as.pdpt)
	ckpt.Map(w, &as.pds, "vm: page-directory")
	w.U64(&as.SwappedOut)
	w.U64(&as.ReclaimDemotions)
}

// Walk forks, encodes, or decodes the address space *p owns. A fork or
// a decoded space is unusable until Bind; a decoded one is validated
// before the walk returns, except for its frame references (CheckFrames,
// after Bind).
func Walk(w *ckpt.Walker, p **AddressSpace) {
	ckpt.Ptr(w, p, (*AddressSpace).state)
	if d := w.Decoder(); d != nil {
		(*p).validate(d)
	}
}

// Bind attaches a forked or decoded space to its physical node and
// shootdown callback, and rebuilds its lookup state: the VMA index, the
// VMAs' back-pointers, and a cold lookup cache.
func (as *AddressSpace) Bind(mem *memsys.Memory, shootdown ShootdownFunc) {
	as.mem = mem
	as.Shootdown = shootdown
	as.lastVMA = nil
	as.byID = make(map[uint32]*VMA, len(as.vmas))
	for _, v := range as.vmas {
		v.space = as
		as.byID[v.id] = v
	}
}

// WalkRef walks a reference to one of space's VMAs (nil allowed); every
// walked cross-package VMA pointer (the workload image's arrays) goes
// through it. Clone swaps in the counterpart from space,
// a bound fork, by VMA id (VMA ids are preserved across forks, which
// keeps owner cookies valid too); encode writes the base address, 0 for
// nil; decode resolves that address against space, the decoded space,
// failing "<what> names no VMA at <base>".
func WalkRef(w *ckpt.Walker, p **VMA, space *AddressSpace, what string) {
	var base uint64
	if *p != nil {
		base = (*p).Base
	}
	w.U64(&base)
	switch {
	case w.Cloning():
		if v := *p; v != nil {
			if *p = space.byID[v.id]; *p == nil {
				panic(check.Failf("vm: no counterpart for VMA %q (id %d) in cloned space", v.Name, v.id))
			}
		}
	case w.Decoder() != nil && base != 0:
		if *p = space.FindVMA(base); *p == nil || (*p).Base != base {
			*p = nil
			w.Failf("%s names no VMA at %#x", what, base)
		}
	}
}

// validate checks a decoded space: VMA order and identity, each VMA's
// per-region bookkeeping, the swap and cursor counters, and the
// page-table accounting.
func (as *AddressSpace) validate(d *ckpt.Decoder) {
	if d.Err() != nil {
		return
	}
	seen := make(map[uint32]bool, len(as.vmas))
	var swapped uint64
	for i, v := range as.vmas {
		if seen[v.id] {
			d.Failf("vm: duplicate VMA id %d", v.id)
			return
		}
		seen[v.id] = true
		if i > 0 && as.vmas[i-1].End() > v.Base {
			d.Failf("vm: VMA %q overlaps or is out of address order", v.Name)
			return
		}
		swapped += v.validate(d)
	}
	if d.Err() != nil {
		return
	}
	if swapped != as.SwappedOut {
		d.Failf("vm: %d pages on swap but SwappedOut says %d", swapped, as.SwappedOut)
		return
	}
	for _, v := range as.vmas {
		if v.Base >= as.nextBase {
			d.Failf("vm: VMA %q sits at or beyond the next mmap base", v.Name)
			return
		}
		if v.id >= as.nextID {
			d.Failf("vm: VMA %q id %d at or beyond the next id", v.Name, v.id)
			return
		}
	}
	as.validateTables(d)
}

// validateTables checks the simulated page-table bookkeeping of a
// decoded space: presence matches the SimPageTables mode and the byte
// counter conserves against the structures that exist.
func (as *AddressSpace) validateTables(d *ckpt.Decoder) {
	if d.Err() != nil {
		return
	}
	if !as.SimPageTables {
		ptf := 0
		for _, v := range as.vmas {
			ptf += len(v.ptFrames)
		}
		if ptf != 0 || as.pml4 != memsys.NoFrame || as.pdpt != memsys.NoFrame ||
			len(as.pds) != 0 || as.PageTableBytes != 0 {
			d.Failf("vm: page-table state present without SimPageTables")
		}
		return
	}
	pages := uint64(0)
	if as.pml4 != memsys.NoFrame {
		pages = 2 + uint64(len(as.pds))
	} else if as.pdpt != memsys.NoFrame || len(as.pds) != 0 {
		d.Failf("vm: paging structures present without a root table")
		return
	}
	for _, v := range as.vmas {
		if len(v.ptFrames) != v.Regions() {
			d.Failf("vm: VMA %q has %d PT pages for %d regions", v.Name, len(v.ptFrames), v.Regions())
			return
		}
		if len(v.ptFrames) > 0 && as.pml4 == memsys.NoFrame {
			d.Failf("vm: VMA %q has PT pages but no root table", v.Name)
			return
		}
		pages += uint64(len(v.ptFrames))
	}
	if want := pages * memsys.PageSize; want != as.PageTableBytes {
		d.Failf("vm: PageTableBytes %d, structures account for %d", as.PageTableBytes, want)
	}
}

// CheckFrames validates every physical frame number a decoded space
// refers to against the attached memory's frame count. It must run
// after Bind; Walk cannot do it because the physical node the space is
// the first owner of decodes after it.
func (as *AddressSpace) CheckFrames(d *ckpt.Decoder) {
	if d.Err() != nil {
		return
	}
	total := as.mem.TotalPages()
	ok := func(f memsys.Frame) bool { return uint64(f) < total }
	okN := func(f memsys.Frame, n int) bool { return uint64(f)+uint64(n) <= total }
	if as.pml4 != memsys.NoFrame && !ok(as.pml4) {
		d.Failf("vm: pml4 frame out of range")
		return
	}
	if as.pdpt != memsys.NoFrame && !ok(as.pdpt) {
		d.Failf("vm: pdpt frame out of range")
		return
	}
	var topPD memsys.Frame
	for _, f := range as.pds {
		topPD = max(topPD, f)
	}
	if len(as.pds) > 0 && !ok(topPD) {
		d.Failf("vm: page-directory frame out of range")
		return
	}
	for _, v := range as.vmas {
		for _, f := range v.ptFrames {
			if !ok(f) {
				d.Failf("vm: VMA %q PT frame out of range", v.Name)
				return
			}
		}
		for _, c := range v.chunks {
			if c == nil {
				continue
			}
			for cr := range c.huge {
				if hf := c.huge[cr]; hf != memsys.NoFrame {
					if hf%memsys.HugePages != 0 || !okN(hf, memsys.HugePages) {
						d.Failf("vm: VMA %q huge frame misaligned or out of range", v.Name)
						return
					}
				}
			}
			for _, pc := range c.pages {
				if pc == nil {
					continue
				}
				for _, f := range pc.base {
					if f != memsys.NoFrame && !ok(f) {
						d.Failf("vm: VMA %q base frame out of range", v.Name)
						return
					}
				}
			}
		}
	}
}
