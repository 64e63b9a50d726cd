package machine

import (
	"testing"

	"graphmem/internal/cache"
	"graphmem/internal/ckpt"
	"graphmem/internal/cost"
	"graphmem/internal/oskernel"
	"graphmem/internal/tlb"
)

// TestShardFastPathZeroAllocs pins the sharded engine's per-access
// cost: a forked shard machine's steady-state Access, AccessRun, and
// AccessGather paths must stay allocation-free, exactly like the
// original's. The per-shard state vector (shardState) is cloned once
// at fork time; nothing on the access path may reach for the heap, or
// running S shards multiplies a per-access allocation S-fold.
func TestShardFastPathZeroAllocs(t *testing.T) {
	m := New(Config{
		MemoryBytes: 64 << 20,
		TLB:         tlb.Haswell(),
		Cache:       cache.Haswell(),
		Cost:        cost.Default(),
		Kernel:      oskernel.DefaultConfig(),
	})
	v := m.Space.Mmap("steady", 4<<20)
	m.RegisterArray(v)
	m.Touch(v.Base, v.Bytes)

	f := m
	Walk(ckpt.Cloner(), &f, nil)
	fv := f.Space.FindVMA(v.Base)
	if fv == nil || fv == v {
		t.Fatal("forked space must carry its own clone of the test VMA")
	}
	vas := make([]uint64, 64)
	for i := range vas {
		vas[i] = fv.Base + uint64(i*832)%(2<<20)
	}
	const span = 16 << 10
	var off uint64
	if avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 512; i++ {
			f.Access(fv.Base + off)
			off = (off + 64) % span
		}
		f.AccessRun(fv.Base, 1024, 4)
		f.AccessGather(vas)
	}); avg != 0 {
		t.Fatalf("forked shard fast path allocated %.1f times per run; the shard-local contract is zero allocs", avg)
	}
}
