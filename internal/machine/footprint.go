package machine

import (
	"unsafe"

	"graphmem/internal/memsys"
	"graphmem/internal/stats"
)

// Footprint assembles the per-subsystem simulator memory report for
// this machine: physical frame metadata, VM mapping tables, region
// heat, TLB/cache model arrays, the machine core itself, and every
// frame owner that can introspect its own cost (workload drivers). Row
// order is fixed, so the rendered report is deterministic.
func (m *Machine) Footprint() stats.Footprint {
	f := stats.Footprint{SimulatedBytes: m.Mem.TotalPages() * memsys.PageSize}

	f.Add("memsys/frames", m.Mem.FootprintBytes())

	tables, heat := m.Space.FootprintBytes()
	f.Add("vm/tables", tables)
	f.Add("vm/heat", heat)

	f.Add("tlb+cache", m.TLB.FootprintBytes()+m.Cache.FootprintBytes())

	// The machine core: the struct itself (which embeds the translation
	// cache's two page-indexed tables) plus its dynamic accounting
	// slices. Slices count by length, not capacity: capacity records how
	// a slice grew, and a fork or a reload of the same state grows it
	// differently.
	core := uint64(unsafe.Sizeof(*m)) +
		uint64(len(m.done))*uint64(unsafe.Sizeof(PhaseStats{})) +
		uint64(len(m.arrays))*uint64(unsafe.Sizeof(ArrayStats{})) +
		uint64(len(m.observers))*16 +
		uint64(len(m.tickers))*uint64(unsafe.Sizeof(ticker{}))
	f.Add("machine", core)

	// Frame owners outside the machine (memhog, page cache, churner)
	// report themselves. The address space and its VMAs do not
	// implement FootprintReporter — their cost is already the vm rows
	// above — so the type assertion skips them.
	for _, o := range m.Mem.Owners() {
		if r, ok := o.(memsys.FootprintReporter); ok {
			f.Add(r.FootprintReport())
		}
	}
	return f
}
