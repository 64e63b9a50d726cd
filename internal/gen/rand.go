package gen

import "graphmem/internal/check"

// rng is a SplitMix64 pseudo-random generator: tiny, fast, and fully
// deterministic across platforms, which the experiment harness requires
// (math/rand would also work but carries global-state hazards).
//
// SplitMix64 is a counter: before its k-th draw (from 0) a stream
// seeded with seed has state seed + gamma·(k+1), and the draw is a
// pure function of that state. rngAt uses this to start a worker at
// any draw in O(1), so a generator can split one stream across workers
// and still draw exactly the values the sequential loop drew.
type rng struct{ state uint64 }

// gamma is SplitMix64's state increment.
const gamma = 0x9E3779B97F4A7C15

func newRNG(seed uint64) *rng {
	r := rngAt(seed, 0)
	return &r
}

// rngAt returns the stream seeded with seed, positioned before its
// k-th draw.
func rngAt(seed uint64, k int) rng {
	return rng{state: seed + gamma*uint64(k+1)}
}

func (r *rng) next() uint64 {
	r.state += gamma
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float64 returns a uniform value in [0,1).
func (r *rng) float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// intn returns a uniform value in [0,n).
func (r *rng) intn(n int) int {
	if n <= 0 {
		panic(check.Failf("gen: intn with non-positive n"))
	}
	return int(r.next() % uint64(n))
}

// perm returns a random permutation of [0,n) as uint32s
// (Fisher–Yates).
func (r *rng) perm(n int) []uint32 {
	p := make([]uint32, n)
	for i := range p {
		p[i] = uint32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
