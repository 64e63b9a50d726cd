package exp

import (
	"fmt"

	"graphmem/internal/analytics"
	"graphmem/internal/core"
	"graphmem/internal/gen"
	"graphmem/internal/reorder"
	"graphmem/internal/stats"
)

// The ext-shard experiment exercises the sharded machine engine
// (DESIGN.md §5c) as a modeling extension: the kernel phase of the
// paper's pressured BFS configuration is split across extShards
// owner-computes shards, and the table reports how well the modeled
// per-shard timelines overlap — the merged kernel time is the barrier
// makespan, so serial-sum/makespan is the modeled intra-run scaling
// and max/mean over ShardKernelCycles is the partition balance.
//
// Every ext-shard cell is sharded; the experiment deliberately has no
// monolithic comparator cells, so the ci.sh shard-equivalence campaign
// (step 12) measures fork-vs-replay bring-up undiluted.

// extShards is the shard count the ext-shard experiment models.
// Sixteen is large enough that partition balance and barrier overlap
// are non-trivial on every dataset, and it makes shard bring-up a
// first-order cost: the NO_SNAPSHOT reference replays the load phase per
// shard where the engine forks it, which is exactly the margin the
// ci.sh step-12 speedup gate measures.
const extShards = 16

// shardNodeBytes is the modeled node memory of the ext-shard cells.
// The paper's evaluation machine holds hundreds of GB against working
// sets a fraction of that; the other experiments shrink the node to
// 4×WSS because only the free tail matters to them, but the sharded
// engine exists to model big-memory nodes, so its cells stage the full
// (scaled) node: memhog pins everything beyond WSS+delta, making
// environment bring-up — the cost sharding amortizes — as prominent as
// it is on real hardware.
func (s *Suite) shardNodeBytes() uint64 {
	switch s.Scale {
	case gen.ScaleFull, gen.ScaleBench:
		return 16 << 30
	default:
		return 128 << 20
	}
}

// shardCfg names one ext-shard cell: pressured BFS on a big-memory
// node with the kernel phase sharded.
func (s *Suite) shardCfg(ds gen.Dataset) runCfg {
	env := s.envPressured(analytics.BFS, ds, highPressureGB)
	env.MemoryBytes = s.shardNodeBytes()
	return runCfg{
		app: analytics.BFS, ds: ds, method: reorder.Identity,
		order: analytics.Natural, policy: core.THPAlways(),
		env:    env,
		shards: extShards,
	}
}

// ShardScaling renders the modeled intra-run scaling of the sharded
// engine: makespan (the merged kernel time), the serial sum of the
// per-shard kernel cycles, their ratio (modeled scaling at extShards
// shards), and the partition balance (slowest shard over the mean —
// 1.0 is a perfect split).
func (s *Suite) ShardScaling() []*stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Extension: sharded machine engine, %d-shard BFS kernel under pressure", extShards),
		"dataset", "makespan", "serial-sum", "scale-x", "balance")
	t.Note = "scale-x = serial-sum/makespan (modeled overlap); balance = slowest shard / mean shard"
	for _, ds := range gen.AllDatasets {
		r := s.run(s.shardCfg(ds))
		var sum, slowest uint64
		for _, c := range r.ShardKernelCycles {
			sum += c
			if c > slowest {
				slowest = c
			}
		}
		mean := float64(sum) / float64(len(r.ShardKernelCycles))
		t.AddRow(string(ds),
			fmt.Sprint(r.KernelCycles),
			fmt.Sprint(sum),
			stats.F(float64(sum)/float64(r.KernelCycles), 3),
			stats.F(float64(slowest)/mean, 3))
	}
	return []*stats.Table{t}
}
