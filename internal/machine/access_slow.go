package machine

import (
	"graphmem/internal/check"
	"graphmem/internal/memsys"
	"graphmem/internal/tlb"
	"graphmem/internal/vm"
)

// This file is the access engine's slow path: everything Access only
// does when a probe misses. Page faults and translation-cache refills
// live in refillTranslation; STLB probes, page walks, simulated-PTE
// fetches, and TLB fills live in translateMiss. Keeping these bodies out
// of access.go keeps the fast path small enough for the compiler to lay
// out tightly and makes the rare/common split auditable.

// refillTranslation reloads the machine's primary translation-cache
// entry for va, servicing a page fault if the page is unmapped or
// swapped. It returns the fault cycles charged to the critical path
// (zero when the page was already mapped and only the cache was cold).
//
// Before walking the page table it probes the slot of va's page in the
// 4 KB table, then in the 2 MB table: an irregular gather over a few
// hot pages misses the primary entry on nearly every reference, and a
// table hit resolves it without the radix walk. The probe is
// functional-only — a Translate success charges no cycles either — so
// the modeled cost is unchanged. A walked or faulted translation fills
// its table slot. The first refill of a machine allocates the tables.
//
// The kernel's HandleFault returns the translation of the mapping it
// installed, so the fault path needs no second radix walk: the returned
// translation seeds the cache directly. Any shootdowns fired while the
// fault was serviced (reclaim, demotion, compaction) happened before
// HandleFault returned — emptying the whole cache — so the seed cannot
// be stale.
func (m *Machine) refillTranslation(va uint64) uint64 {
	t := m.trTab
	if t == nil {
		t = new(trTables)
		m.trTab = t
	}
	s4 := &t.t4K[va>>memsys.PageShift&(trSlots4K-1)]
	if s4.key == va>>memsys.PageShift+1 {
		m.setPrimary(s4.tr)
		return 0
	}
	s2 := &t.t2M[va>>hugeShift&(trSlots2M-1)]
	if s2.key == va>>hugeShift+1 {
		m.setPrimary(s2.tr)
		return 0
	}
	tr, fault, ok := m.Space.Translate(va)
	var fc uint64
	if !ok {
		if fault == nil {
			panic(check.Failf("machine: access to unmapped address %#x", va))
		}
		tr, fc = m.Kernel.HandleFault(fault)
		m.phase.FaultCycles += fc
	}
	m.setPrimary(tr)
	if tr.Size == vm.Page2M {
		*s2 = trSlot{key: va>>hugeShift + 1, tr: tr}
	} else {
		*s4 = trSlot{key: va>>memsys.PageShift + 1, tr: tr}
	}
	m.trLive = true
	return fc
}

// setPrimary installs tr as the primary translation-cache entry.
func (m *Machine) setPrimary(tr vm.Translation) {
	m.tr = tr
	m.trBase = tr.BaseVA
	m.trSpan = tr.Size.Bytes()
}

// translateMiss charges the translation cost beyond an L1 TLB hit: an
// STLB hit, or a full page walk (page-walk-cache-accelerated, with the
// deepest levels either costed by the constant model or fetched through
// the data cache hierarchy when page tables are simulated). Walked
// translations are filled back into the TLB.
func (m *Machine) translateMiss(va uint64, size vm.PageSizeClass, res tlb.Result) uint64 {
	if res.STLBHit {
		return m.Model.STLBHit
	}
	memLv, pwcLv := m.TLB.WalkCost(va, size)
	trCycles := m.Model.STLBHit + uint64(pwcLv)*m.Model.WalkLevelPWC
	if m.simPT {
		// Fetch the walked entries through the cache hierarchy: the
		// deepest memLv levels go to memory, each charged its data
		// cost less the access's compute.
		addrs, _ := m.Space.WalkEntryAddrs(va, size)
		for i := 0; i < memLv; i++ {
			trCycles += m.dataCycles(m.Cache.Access(addrs[i])) - m.Model.Compute
		}
	} else {
		trCycles += uint64(memLv) * m.Model.WalkLevel
	}
	m.TLB.AddWalkCycles(trCycles)
	m.TLB.Fill(va, size)
	return trCycles
}
