package sched

import (
	"runtime"
	"sync"
	"testing"
)

// TestChunksCoverOnce checks that Chunks hands every index to exactly
// one call, in contiguous chunks of at least minChunk, and that it
// splits only when two chunks fit.
func TestChunksCoverOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		for _, c := range []struct{ n, minChunk int }{{0, 4}, {1, 4}, {7, 4}, {8, 4}, {1000, 1}, {1000, 0}, {999, 100}, {10, 100}} {
			hits := make([]int, c.n)
			var mu sync.Mutex
			var lens []int
			Chunks(c.n, c.minChunk, func(lo, hi int) {
				mu.Lock()
				lens = append(lens, hi-lo)
				mu.Unlock()
				for i := lo; i < hi; i++ {
					hits[i]++
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("GOMAXPROCS=%d n=%d min=%d: index %d handed out %d times", procs, c.n, c.minChunk, i, h)
				}
			}
			if want := max(1, min(procs, c.n/max(c.minChunk, 1))); len(lens) != want {
				t.Errorf("GOMAXPROCS=%d n=%d min=%d: %d calls, want %d", procs, c.n, c.minChunk, len(lens), want)
			}
			for _, l := range lens {
				if len(lens) > 1 && l < c.minChunk {
					t.Errorf("GOMAXPROCS=%d n=%d: a chunk of %d is shorter than %d", procs, c.n, l, c.minChunk)
				}
			}
		}
	}
}
