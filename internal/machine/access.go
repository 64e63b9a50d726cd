//simlint:fastpath

package machine

import "graphmem/internal/memsys"

// Access simulates one data memory access at virtual address va and
// advances simulated time. Both loads and stores take this path: the
// simulator does not model store buffers, so the cost of a store's
// translation and cache fill equals a load's.
//
// This is the engine's fast path, executed once per simulated memory
// reference, and it is written to stay branch-lean and allocation-free
// for the common case (mapped page + TLB hit + L1D hit):
//
//   - one unsigned compare against the translation cache replaces the
//     radix walk in Space.Translate;
//   - the TLB probe and the data-cache probe are straight calls whose
//     miss handling lives in access_slow.go;
//   - phase, heat, and per-array accounting are plain field increments;
//   - background actors cost one compare (m.cycles >= m.nextEvent);
//   - the tracer is called only when attached.
//
// The file is tagged //simlint:fastpath: rule SL007 rejects appends, map
// writes, and allocating closure captures here.
func (m *Machine) Access(va uint64) {
	var cycles uint64

	// Translation cache probe. A miss (including the trSpan==0 empty
	// state) refills from the page table, handling any page fault; the
	// refill returns the fault cycles charged to the critical path.
	if va-m.trBase >= m.trSpan {
		cycles = m.refillTranslation(va) //simlint:ignore SL012 fault-path refill allocates only on first touch
	}
	tr := &m.tr

	// Address translation through the TLB hierarchy.
	res := m.TLB.Lookup(va, tr.Size)
	var trCycles uint64
	if !res.L1Hit {
		trCycles = m.translateMiss(va, tr.Size, res) //simlint:ignore SL012 TLB-miss page walk; visitor closure is off the steady-state path
		cycles += trCycles
		m.phase.TranslationCycles += trCycles
	}

	// Data access at the physical address.
	// While a cache stage hands probes off, the cache goroutine probes
	// pa later and the access is charged the dearest level now
	// (cachestage.go).
	pa := uint64(tr.Frame)<<memsys.PageShift + (va - tr.BaseVA)
	var dataCycles uint64
	if st := m.handoff; st != nil {
		st.probe(pa)
		dataCycles = st.cMax
	} else {
		dataCycles = m.dataCycles(m.Cache.Access(pa))
	}
	cycles += dataCycles
	m.phase.DataCycles += dataCycles

	// Zero-alloc accounting hooks (stats.go): region heat for
	// heat-guided promotion policies, then per-array attribution.
	m.accountHeat(va, tr.VMA)
	m.accountArray(tr.VMA, res)

	m.cycles += cycles
	m.phase.Cycles += cycles
	m.phase.Accesses++

	if m.tracer != nil {
		m.trace(va, tr.VMA)
	}

	// Event layer: dispatch background actors only when one is due.
	if m.cycles >= m.nextEvent {
		m.atDeadline() //simlint:ignore SL012 due-event dispatch; registered tickers own their allocation budget
	}
}
