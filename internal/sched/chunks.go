package sched

import (
	"runtime"
	"sync"
)

// Chunks splits [0,n) into one contiguous chunk per worker, on up to
// GOMAXPROCS workers and with at least minChunk elements per chunk,
// and calls fn on every chunk concurrently. It returns when every call
// has. When only one chunk fits, fn(0, n) runs on the caller's
// goroutine.
//
// The split follows GOMAXPROCS, so callers must make their output
// independent of it: each call writes only its own range of presized
// outputs and derives everything else from lo. fn must not panic;
// callers check their inputs before they split.
func Chunks(n, minChunk int, fn func(lo, hi int)) {
	w := min(runtime.GOMAXPROCS(0), n/max(minChunk, 1))
	if w <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for i := 1; i < w; i++ {
		go chunk(&wg, fn, i*n/w, (i+1)*n/w)
	}
	fn(0, n/w)
	wg.Wait()
}

// chunk runs one worker's chunk. It is a named function, not a literal
// started in place, because simlint resolves a call through a func()
// value to every func() literal in the module, and that would put the
// benchmark's wall-clock readers on the simulation path.
func chunk(wg *sync.WaitGroup, fn func(lo, hi int), lo, hi int) {
	defer wg.Done()
	fn(lo, hi)
}
