package machine

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"graphmem/internal/cache"
	"graphmem/internal/cost"
	"graphmem/internal/oskernel"
	"graphmem/internal/tlb"
)

// benchMachine builds a machine with the paper's full-geometry hardware
// and the default THP policy, maps one array, and faults it in so the
// benchmark loop measures steady state rather than first-touch costs.
func benchMachine(b *testing.B, bytes uint64) (*Machine, uint64) {
	b.Helper()
	m := New(Config{
		MemoryBytes: 256 << 20,
		TLB:         tlb.Haswell(),
		Cache:       cache.Haswell(),
		Cost:        cost.Default(),
		Kernel:      oskernel.DefaultConfig(),
	})
	v := m.Space.Mmap("bench", bytes)
	m.RegisterArray(v)
	m.Touch(v.Base, v.Bytes)
	return m, v.Base
}

// BenchmarkAccess is the simulator's per-access floor: every reference
// hits the translation fast path (mapped page, TLB hit) and the L1 data
// cache. It is the scalar side of TestAccessEngineSpeedup's bulk gate
// and the path the zero-alloc contract covers.
func BenchmarkAccess(b *testing.B) {
	m, base := benchMachine(b, 8<<20)
	// 16KB working set: fits L1D and one 2MB page, so the loop stays on
	// the TLB-hit + L1-hit path.
	const span = 16 << 10
	b.ReportAllocs()
	b.ResetTimer()
	va := base
	for i := 0; i < b.N; i++ {
		m.Access(va)
		va += 64
		if va >= base+span {
			va = base
		}
	}
}

// BenchmarkAccessRun measures the bulk engine on the edge-scan shape:
// sequential runs of 4-byte entries (16 per cache line) sweeping a 2MB
// region, issued as AccessRun calls the way the kernels stream a CSR
// neighbor range. ns/op is per simulated access, directly comparable to
// BenchmarkAccess; TestAccessEngineSpeedup requires ≥2× the scalar
// throughput, and TestAccessRunZeroAllocs 0 allocs/op.
func BenchmarkAccessRun(b *testing.B) {
	m, base := benchMachine(b, 8<<20)
	const span = 2 << 20
	const entry = 4
	const run = 4096 // one AccessRun call covers 16KB of edge entries
	b.ReportAllocs()
	b.ResetTimer()
	va := base
	for i := 0; i < b.N; i += run {
		n := run
		if rem := b.N - i; rem < n {
			n = rem
		}
		m.AccessRun(va, n, entry)
		va += uint64(n) * entry
		if va >= base+span {
			va = base
		}
	}
}

// gatherBenchVAs builds the irregular neighbor-gather-shaped stream the
// gather engine targets: random jumps inside the hot property prefix
// (DBG packs the hub vertices most gather references hit into a small
// window — kept L1-resident here so the benchmark isolates the engine's
// own per-access overhead, exactly as BenchmarkAccess does for the
// scalar floor), each jump followed by a sorted burst of 8-byte entries
// covering up to two cache lines (dense hub clusters give adjacent
// neighbor IDs after degree-based grouping, so a burst is the stream's
// best case; the jump between bursts is its worst). Kernel batches on
// the bench graphs sit between the two, which the differential suite —
// not this benchmark — covers.
func gatherBenchVAs(base uint64) []uint64 {
	const span = 16 << 10
	const n = 1 << 16
	vas := make([]uint64, 0, n+16)
	x := uint64(0x9E3779B97F4A7C15)
	for len(vas) < n {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		va := base + x%(span-128)&^7
		for j := uint64(0); j <= x>>60; j++ {
			vas = append(vas, va+j*8)
		}
	}
	return vas[:n]
}

// benchGather replays the gather-shaped stream in batches the size a
// hub vertex's neighbor list produces, through the gather engine or,
// with gather unset, one scalar Access at a time. ns/op is per
// simulated access, directly comparable to BenchmarkAccess.
func benchGather(b *testing.B, gather bool) {
	m, base := benchMachine(b, 8<<20)
	vas := gatherBenchVAs(base)
	const batch = 4096
	b.ReportAllocs()
	b.ResetTimer()
	off := 0
	for i := 0; i < b.N; i += batch {
		n := batch
		if rem := b.N - i; rem < n {
			n = rem
		}
		if off+n > len(vas) {
			off = 0
		}
		accessGather(m, gather, vas[off:off+n])
		off += n
	}
}

// BenchmarkAccessGather measures the gather engine on the irregular
// neighbor-gather shape. TestAccessEngineSpeedup requires ≥2× the
// scalar throughput of the same stream (BenchmarkAccessGatherScalar),
// and TestAccessGatherZeroAllocs 0 allocs/op.
func BenchmarkAccessGather(b *testing.B) { benchGather(b, true) }

// BenchmarkAccessGatherScalar is the same stream as a loop of scalar
// Access calls — the per-access dispatch baseline the speedup is
// measured against.
func BenchmarkAccessGatherScalar(b *testing.B) { benchGather(b, false) }

// BenchmarkAccessStream measures a streaming pass: sequential lines over
// a footprint far beyond L1, so data misses and periodic TLB refills are
// in the mix (the shape of an initialization loop).
func BenchmarkAccessStream(b *testing.B) {
	m, base := benchMachine(b, 64<<20)
	const span = 64 << 20
	b.ReportAllocs()
	b.ResetTimer()
	va := base
	for i := 0; i < b.N; i++ {
		m.Access(va)
		va += 64
		if va >= base+span {
			va = base
		}
	}
}

// BenchmarkAccessRandom measures the graph-analytics shape: a
// deterministic xorshift stream of irregular references, where walks and
// DRAM fills dominate (the property-array access pattern).
func BenchmarkAccessRandom(b *testing.B) {
	m, base := benchMachine(b, 64<<20)
	const mask = 64<<20 - 1
	b.ReportAllocs()
	b.ResetTimer()
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < b.N; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		m.Access(base + (x&mask)&^63)
	}
}

// TestAccessEngineSpeedup is the ci.sh step-7 engine gate: on the same
// binary and host, the bulk engine must cost at most half the scalar
// path per simulated access (BenchmarkAccessRun vs BenchmarkAccess), and
// the gather engine at most half its own stream issued as a loop of
// scalar Access calls (BenchmarkAccessGather vs
// BenchmarkAccessGatherScalar).
// The gate is a same-host ratio, never an absolute ns/op budget: it
// survives any host while still catching an engine that quietly
// degrades to its scalar path.
//
// Each side takes the minimum ns/op of three testing.Benchmark runs,
// the two sides interleaved so slow spells of a busy host fall on both
// rather than one. Wall-clock assertions are meaningless under -race or on
// an arbitrarily loaded host, so the test skips unless
// GRAPHMEM_SPEEDUP_GATE is set.
func TestAccessEngineSpeedup(t *testing.T) {
	if os.Getenv("GRAPHMEM_SPEEDUP_GATE") == "" {
		t.Skip("set GRAPHMEM_SPEEDUP_GATE=1 to run the wall-clock gate (ci.sh step 7)")
	}
	nsPerAccess := func(bench func(*testing.B)) float64 {
		r := testing.Benchmark(bench)
		if r.N == 0 {
			t.Fatal("a benchmark failed; the gate has no measurement")
		}
		return float64(r.T.Nanoseconds()) / float64(r.N)
	}
	pairs := []struct {
		name           string
		scalar, engine func(*testing.B)
	}{
		{"bulk", BenchmarkAccess, BenchmarkAccessRun},
		{"gather", BenchmarkAccessGatherScalar, BenchmarkAccessGather},
	}
	const reps = 3
	var line strings.Builder
	for _, p := range pairs {
		scalar, engine := math.Inf(1), math.Inf(1)
		for i := 0; i < reps; i++ {
			scalar = math.Min(scalar, nsPerAccess(p.scalar))
			engine = math.Min(engine, nsPerAccess(p.engine))
		}
		speedup := scalar / engine
		fmt.Fprintf(&line, " %s_scalar_ns=%.2f %s_ns=%.2f %s_speedup=%.2f",
			p.name, scalar, p.name, engine, p.name, speedup)
		if speedup < 2 {
			t.Errorf("%s engine %.2f ns/access vs scalar %.2f ns/access (%.2fx), want >= 2x: it is no longer amortizing",
				p.name, engine, scalar, speedup)
		}
	}
	t.Logf("access_engines%s", line.String())
}
