package vm

import "unsafe"

// FootprintBytes reports the simulator-side bytes backing this address
// space's mapping state, split into tables (chunk directories,
// materialized region chunks minus their heat counters, per-page chunks,
// leaf page-table frame lists, PD map) and heat (the per-region access
// counters). A chunk nothing ever touched costs one directory pointer.
func (as *AddressSpace) FootprintBytes() (tables, heat uint64) {
	const (
		chunkBytes     = uint64(unsafe.Sizeof(vmaChunk{}))
		pageChunkBytes = uint64(unsafe.Sizeof(pageChunk{}))
		heatBytes      = uint64(unsafe.Sizeof([chunkRegions]uint64{}))
		ptrBytes       = uint64(unsafe.Sizeof((*vmaChunk)(nil)))
	)
	for _, v := range as.vmas {
		tables += uint64(len(v.chunks)) * ptrBytes
		for _, c := range v.chunks {
			if c == nil {
				continue
			}
			tables += chunkBytes - heatBytes
			heat += heatBytes
			for _, pc := range c.pages {
				if pc != nil {
					tables += pageChunkBytes
				}
			}
		}
		tables += uint64(len(v.ptFrames)) * 4
	}
	tables += uint64(len(as.pds)) * 16
	return tables, heat
}
