package core

import (
	"fmt"
	"runtime"

	"graphmem/internal/analytics"
	"graphmem/internal/check"
	"graphmem/internal/machine"
	"graphmem/internal/sched"
	"graphmem/internal/vm"
)

// This file is the core half of the sharded machine engine (DESIGN.md
// §5c): shard bring-up (forking the prepared machine once per extra
// shard, or replaying the load phase when the GRAPHMEM_NO_SNAPSHOT
// hatch is open), the worker pool that drives the shards between
// barriers, and the deterministic merge of per-shard statistics into
// one RunResult. The shard count is part of the spec
// (RunSpec.Shards — it changes the modeled system); the worker count
// is not (GOMAXPROCS — it may only change wall-clock time), so a
// sharded run's output is byte-identical at any worker count, which
// the differential tests and ci.sh step 12 verify.

// finishSharded runs the kernel phase as spec.Shards owner-computes
// shards and merges the per-shard outcomes into one RunResult. m/img
// are the prepared (or forked) pair positioned at the end of the load
// phase; they become shard 0, and every extra shard is a ForkPair of
// them — or, with the GRAPHMEM_NO_SNAPSHOT hatch open, an independent
// replay of the load phase, the reference bring-up the CI equivalence
// gate diffs against.
func (p *prepared) finishSharded(m *machine.Machine, img *analytics.Image, opts analytics.RunOptions) *RunResult {
	s := p.spec.Shards

	// Every shard machine inherits the load phase's counters; the
	// merge below subtracts the extra s−1 copies of this baseline.
	baseArrays := m.ArrayStats()
	baseOS := m.Kernel.Stats()

	ms := make([]*machine.Machine, s)
	imgs := make([]*analytics.Image, s)
	ms[0], imgs[0] = m, img
	for sh := 1; sh < s; sh++ {
		if SnapshotsDisabled() {
			q, err := prepare(p.spec)
			if err != nil {
				// Impossible: the identical spec already prepared once,
				// and the load phase is deterministic.
				panic(check.Failf("core: shard %d load-phase replay failed after the original succeeded: %v", sh, err))
			}
			ms[sh], imgs[sh] = q.m, q.img
		} else {
			ms[sh], imgs[sh] = ForkPair(m, img)
		}
	}

	serial := func(n int, fn func(i int)) {
		for i := 0; i < n; i++ {
			fn(i)
		}
	}
	parallel := serial
	// GOMAXPROCS workers, clamped to the shard count, drive the shards.
	// It is read per run, so tests vary it to prove it cannot change
	// output.
	if workers := min(runtime.GOMAXPROCS(0), s); workers > 1 {
		pool := sched.NewPool(workers)
		defer pool.Close()
		parallel = pool.RunN
	}

	out, makespan := analytics.RunSharded(imgs, p.cuts, opts, parallel)
	for _, sm := range ms {
		auditMachine(sm) // end of kernel: every shard's layout must balance
	}

	// Per-shard phase extraction, in shard index order. The init phase
	// is identical on every shard (forks and replays of one load
	// phase), so shard 0's copy represents it.
	shardKernel := make([]machine.PhaseStats, s)
	shardCycles := make([]uint64, s)
	var init machine.PhaseStats
	for sh, sm := range ms {
		for _, ph := range sm.FinishPhases() {
			switch ph.Name {
			case "init":
				if sh == 0 {
					init = ph
				}
			case "kernel":
				shardKernel[sh] = ph
				shardCycles[sh] = ph.Cycles
			}
		}
	}

	// Kernel merge: every counter is the exact sum over shards, while
	// Cycles becomes the barrier makespan RunSharded measured — the
	// modeled time of shards executing concurrently and meeting at
	// every phase boundary. The per-phase accounting identity
	// (Cycles == Data + Translation + Fault) intentionally does not
	// hold for the merged phase; ShardKernelCycles preserves the
	// per-shard values for which it does.
	kernel := shardKernel[0]
	for sh := 1; sh < s; sh++ {
		kernel = kernel.Add(shardKernel[sh])
	}
	kernel.Cycles = makespan

	osStats := ms[0].Kernel.Stats()
	for sh := 1; sh < s; sh++ {
		osStats = osStats.Add(ms[sh].Kernel.Stats().Sub(baseOS))
	}

	arrays := ms[0].ArrayStats()
	for sh := 1; sh < s; sh++ {
		for i, a := range ms[sh].ArrayStats() {
			arrays[i].Accesses += a.Accesses - baseArrays[i].Accesses
			arrays[i].L1Misses += a.L1Misses - baseArrays[i].L1Misses
			arrays[i].Walks += a.Walks - baseArrays[i].Walks
		}
	}

	// The merge must stay a commutative reduction consumed in fixed
	// shard order: under -tags simcheck, re-reduce in reverse order and
	// demand identical results.
	check.Audit("shardmerge", func() error {
		rev := shardKernel[s-1]
		for sh := s - 2; sh >= 0; sh-- {
			rev = rev.Add(shardKernel[sh])
		}
		rev.Cycles = makespan
		rev.Name = kernel.Name
		if rev != kernel {
			return fmt.Errorf("kernel-phase merge is order-dependent: forward %+v != reverse %+v", kernel, rev)
		}
		osRev := ms[s-1].Kernel.Stats()
		for sh := s - 2; sh >= 0; sh-- {
			osRev = osRev.Add(ms[sh].Kernel.Stats())
		}
		for sh := 1; sh < s; sh++ {
			osRev = osRev.Sub(baseOS)
		}
		if osRev != osStats {
			return fmt.Errorf("OS-stats merge is order-dependent: forward %+v != reverse %+v", osStats, osRev)
		}
		return nil
	})

	res := &RunResult{
		Spec:              p.spec,
		WSSBytes:          p.wss,
		MemoryBytes:       p.memBytes,
		PreprocessCycles:  p.preCycles,
		InitCycles:        init.Cycles,
		KernelCycles:      makespan,
		Init:              init,
		Kernel:            kernel,
		Arrays:            arrays,
		OS:                osStats,
		ShardKernelCycles: shardCycles,
		Output:            out,
	}
	res.TotalCycles = res.PreprocessCycles + res.InitCycles + res.KernelCycles

	// Layout metrics: the shards' address spaces evolve independently
	// during the kernel phase (each faults and promotes its own
	// windows), so report the integer mean over shards — the "one
	// machine's worth" figure comparable to a monolithic run.
	var mapped, huge, propHuge uint64
	for _, im := range imgs {
		for _, v := range []*vm.VMA{im.Vertex, im.Edge, im.Values, im.Prop, im.Work} {
			if v == nil {
				continue
			}
			total, h := v.MappedBytes()
			mapped += total
			huge += h
			if v == im.Prop {
				propHuge += h
			}
		}
	}
	res.MappedBytes = mapped / uint64(s)
	res.TotalHugeBytes = huge / uint64(s)
	res.PropHugeBytes = propHuge / uint64(s)
	return res
}
