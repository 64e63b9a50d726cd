package oskernel

import (
	"graphmem/internal/ckpt"
	"graphmem/internal/memsys"
	"graphmem/internal/vm"
)

// State walk (DESIGN.md §5e): config, counters, scan and demotion
// cursors, the khugepaged deadline, and the hugetlbfs reservation pool
// are walked — a forked or loaded kernel's next decision (which region
// khugepaged scans, when the next tick fires, which huge frame a
// reservation hands out) must be exactly the original's — while the
// mem/space bindings and the PromoteByHeat scratch buffer are set by
// Walk's bind step.

func (c *Config) state(w *ckpt.Walker) {
	ckpt.Num(w, &c.Mode)
	ckpt.Num(w, &c.Defrag)
	w.Bool(&c.FaultTimeHuge)
	w.Bool(&c.PromoteByHeat)
	w.Bool(&c.KhugepagedEnabled)
	w.U64(&c.KhugepagedInterval)
	w.Int(&c.KhugepagedRegionsPerScan)
	w.Int(&c.MaxPtesNone)
	w.Int(&c.ReclaimBatch)
	w.Int(&c.HugetlbReserve)
	if d := w.Decoder(); d != nil && (c.Mode > ModeAlways || c.Defrag > DefragAlways) {
		d.Failf("oskernel: THP mode %d / defrag mode %d unknown", c.Mode, c.Defrag)
	}
}

func (k *Kernel) state(w *ckpt.Walker) {
	k.cfg.state(w)
	_, _ = k.mem, k.space // bindings; set by Walk
	ckpt.Fixed(w, &k.model)
	ckpt.Fixed(w, &k.stats)
	w.Int(&k.scanVMA)
	w.Int(&k.scanRegion)
	w.U64(&k.lastScan)
	w.Int(&k.demoteVMA)
	w.Int(&k.demoteRegion)
	ckpt.Slice(w, &k.hugetlbPool)
	if len(k.heatCands) != 0 {
		// Per-scan scratch, cleared after every scan; a machine can only
		// be forked or saved between scans.
		w.Failf("oskernel: heat-candidate scratch is live mid-scan")
	}
}

// Walk forks, encodes, or decodes the policy engine *p owns. A fork or a
// decoded copy is bound to mem and space — the caller walks those
// first; the kernel holds no mapping state of its own — and starts with
// an empty scratch buffer; a decoded one is validated against both.
func Walk(w *ckpt.Walker, p **Kernel, mem *memsys.Memory, space *vm.AddressSpace) {
	ckpt.Ptr(w, p, (*Kernel).state)
	if w.Encoder() != nil {
		return
	}
	k := *p
	k.mem = mem
	k.space = space
	k.heatCands = nil
	d := w.Decoder()
	if d == nil || d.Err() != nil {
		return
	}
	// The scan loops self-heal a VMA cursor past the list (VMAs can be
	// unmapped) but dereference the region cursor before bounding it,
	// so the region cursor must sit inside its VMA.
	vmas := space.VMAs()
	checkCursor := func(vi, ri int, regions func(*vm.VMA) int, name string) {
		if vi < 0 || vi > len(vmas) || ri < 0 {
			d.Failf("oskernel: %s cursor (%d,%d) out of range", name, vi, ri)
			return
		}
		if vi < len(vmas) {
			if max := regions(vmas[vi]); ri >= max && ri != 0 {
				d.Failf("oskernel: %s cursor region %d beyond VMA's %d regions", name, ri, max)
			}
		}
	}
	checkCursor(k.scanVMA, k.scanRegion, (*vm.VMA).FullRegions, "scan")
	checkCursor(k.demoteVMA, k.demoteRegion, (*vm.VMA).Regions, "demotion")
	total := mem.TotalPages()
	for _, hf := range k.hugetlbPool {
		if hf%memsys.HugePages != 0 || uint64(hf)+memsys.HugePages > total {
			d.Failf("oskernel: hugetlb pool frame %d misaligned or out of range", hf)
			return
		}
	}
}
