package workload

import (
	"testing"

	"graphmem/internal/memsys"
)

// BenchmarkNewMemhog times staging paper-node's memory pressure: a 32 GB
// node aged like core.Pressured's (one unmovable page in every eighth
// 2MB region), pinned down to WSS+Δ for a 16 MB working set with
// Δ = WSS/16.
func BenchmarkNewMemhog(b *testing.B) {
	const wss, delta = 16 << 20, 1 << 20
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		mem := memsys.New(32 << 30)
		AgeSystem(mem, 0.125, 1)
		hog := mem.FreePages()*memsys.PageSize - wss - delta
		b.StartTimer()
		if h := NewMemhog(mem, hog); h.PinnedBytes() != hog {
			b.Fatalf("pinned %d bytes, want %d", h.PinnedBytes(), hog)
		}
	}
}
