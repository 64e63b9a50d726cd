package analytics

import (
	"graphmem/internal/check"
)

// This file orchestrates the sharded kernel mode (DESIGN.md §5c): one
// logical simulation decomposed into S owner-computes shards, each
// backed by its own forked machine over a contiguous vertex window.
// Kernels run as bulk-synchronous programs — a scatter phase where
// every shard pops its own frontier window and streams its own vertex
// and edge windows, a barrier, and an apply phase where each shard
// drains cross-shard messages in fixed source order and performs the
// irregular property work for the vertices it owns. The orchestration
// here (phase sequencing, barriers, termination counts, makespan
// accounting) is deliberately separate from the per-shard worker
// bodies in shard_kernels.go, which are tagged //simlint:shardworker
// so rule SL014 can verify nothing they reach writes shared globals.
//
// Determinism contract: output is a pure function of (graph, cuts,
// options) — never of the worker count driving the shards. Shared
// algorithm state (hops, dist, rank, …) is only ever written by the
// owning shard, message outboxes are only appended by their source
// shard and drained in fixed source order, and every reduction in this
// file iterates shards in index order.

// shardMsg is one owner-computes message: scatter work for vertex w,
// owned by the receiving shard. The payload carries the app-specific
// datum (candidate SSSP distance, PageRank contribution bits, BC sigma
// bits); BFS and CC discovery needs only the target.
type shardMsg struct {
	w uint32
	x uint64
}

// ShardGroup drives one sharded kernel execution over S images.
type ShardGroup struct {
	imgs  []*Image
	st    []*stream // st[sh] carries shard sh's accesses to its machine, inline
	cuts  []uint32
	owner []uint8

	// parallel executes fn(0..n-1) and returns when all are done — the
	// execution knob. A serial loop and a sched.Pool are both valid;
	// the simulation cannot observe which ran (or in what order),
	// because shards only share state across the barrier.
	parallel func(n int, fn func(i int))

	// out[src][dst] is src's outbox of messages for dst-owned vertices.
	// Scatter appends to row src; apply drains column dst and truncates
	// each cell it consumed. Reused across rounds.
	out [][][]shardMsg

	// cur/next are the per-shard frontier double buffers.
	cur, next [][]uint32

	// Barrier-makespan accounting: last[sh] is shard sh's cycle counter
	// at the previous barrier; every step adds the maximum per-shard
	// delta, modeling shards running concurrently and meeting at each
	// barrier (the merged kernel time core reports).
	last     []uint64
	makespan uint64
}

// RunSharded executes the app's kernel across the shard images and
// returns the result plus the barrier makespan in cycles. imgs[sh]
// simulates shard sh, which owns vertices [cuts[sh], cuts[sh+1]); all
// images must be forks (or deterministic replays) of one prepared
// machine, each with the full address space mapped. Every image enters
// its own "kernel" phase; the caller finishes phases and merges stats.
func RunSharded(imgs []*Image, cuts []uint32, opt RunOptions, parallel func(int, func(int))) (Result, uint64) {
	s := len(imgs)
	if s < 2 {
		panic(check.Failf("analytics: RunSharded with %d shards; use Image.Run for monolithic execution", s))
	}
	if len(cuts) != s+1 {
		panic(check.Failf("analytics: RunSharded with %d cuts for %d shards; want shards+1", len(cuts), s))
	}
	g := imgs[0].G
	app := imgs[0].App
	opt = opt.withDefaults()
	for _, img := range imgs {
		if !img.initialized {
			panic(check.Failf("analytics: RunSharded before Init"))
		}
		if img.App != app || img.G.N != g.N {
			panic(check.Failf("analytics: RunSharded over mismatched shard images"))
		}
	}
	if int(cuts[s]) != g.N {
		panic(check.Failf("analytics: shard cuts end at %d, graph has %d vertices", cuts[s], g.N))
	}

	sg := &ShardGroup{
		imgs:     imgs,
		st:       make([]*stream, s),
		cuts:     cuts,
		owner:    make([]uint8, g.N),
		parallel: parallel,
		out:      make([][][]shardMsg, s),
		cur:      make([][]uint32, s),
		next:     make([][]uint32, s),
		last:     make([]uint64, s),
	}
	for sh := 0; sh < s; sh++ {
		sg.out[sh] = make([][]shardMsg, s)
		for v := cuts[sh]; v < cuts[sh+1]; v++ {
			sg.owner[v] = uint8(sh)
		}
	}
	for sh, img := range imgs {
		img.M.BeginPhase("kernel")
		sg.st[sh] = newStream(img.M, streamBlockWords, 1)
		sg.last[sh] = img.M.Cycles()
	}

	var res Result
	switch app {
	case BFS:
		res.Hops = sg.runBFS(opt.Root)
	case SSSP:
		res.Dist = sg.runSSSP(opt.Root)
	case PR:
		res.Ranks, res.Iterations = sg.runPR(opt.PREpsilon, opt.PRMaxIters)
	case CC:
		res.Labels = sg.runCC()
	case BC:
		res.Centrality = sg.runBC(opt.BCSources)
	default:
		panic(check.Failf("analytics: unknown app %s", app))
	}
	return res, sg.makespan
}

// step runs one bulk-synchronous superstep — fn on every shard, which
// then flushes its stream, and a barrier — and folds the slowest shard's
// cycle delta into the makespan. Iterating shards in index order here
// (not completion order) is what keeps the accounting independent of
// worker count.
func (sg *ShardGroup) step(fn func(sh int)) {
	sg.parallel(len(sg.imgs), func(sh int) {
		fn(sh)
		sg.st[sh].flush()
	})
	var maxd uint64
	for sh, img := range sg.imgs {
		c := img.M.Cycles()
		d := c - sg.last[sh]
		sg.last[sh] = c
		if d > maxd {
			maxd = d
		}
	}
	sg.makespan += maxd
}

// swapFrontiers flips every shard's frontier double buffer and returns
// the total new frontier size (the BSP termination count).
func (sg *ShardGroup) swapFrontiers() int {
	total := 0
	for sh := range sg.imgs {
		sg.cur[sh], sg.next[sh] = sg.next[sh], sg.cur[sh]
		total += len(sg.cur[sh])
	}
	return total
}

// --- orchestrators -----------------------------------------------------

func (sg *ShardGroup) runBFS(root uint32) []int64 {
	n := sg.imgs[0].G.N
	hops := make([]int64, n)
	for i := range hops {
		hops[i] = -1
	}
	hops[root] = 0
	r := &bfsShardRun{sg: sg, hops: hops, root: root}
	rootSh := int(sg.owner[root])
	sg.step(func(sh int) {
		if sh == rootSh {
			r.seed(sh)
		}
	})
	total := 1
	for total > 0 {
		r.level++
		sg.step(r.scatter)
		sg.step(r.apply)
		total = sg.swapFrontiers()
		r.buf = 1 - r.buf
	}
	return hops
}

func (sg *ShardGroup) runSSSP(root uint32) []int64 {
	n := sg.imgs[0].G.N
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[root] = 0
	r := &ssspShardRun{sg: sg, dist: dist, inNext: make([]bool, n), root: root}
	rootSh := int(sg.owner[root])
	sg.step(func(sh int) {
		if sh == rootSh {
			r.seed(sh)
		}
	})
	total := 1
	for total > 0 {
		sg.step(r.scatter)
		sg.step(r.apply)
		total = sg.swapFrontiers()
		r.buf = 1 - r.buf
	}
	return dist
}

func (sg *ShardGroup) runPR(eps float64, maxIters int) ([]float64, int) {
	n := sg.imgs[0].G.N
	r := &prShardRun{
		sg:       sg,
		rank:     make([]float64, n),
		nextRank: make([]float64, n),
		base:     (1 - prDamping) / float64(n),
		localMax: make([]float64, len(sg.imgs)),
	}
	init := 1 / float64(n)
	for i := range r.rank {
		r.rank[i] = init
	}
	iters := 0
	for iters < maxIters {
		iters++
		sg.step(r.scatter)
		sg.step(r.apply)
		var maxDelta float64
		for _, d := range r.localMax {
			if d > maxDelta {
				maxDelta = d
			}
		}
		if maxDelta < eps {
			break
		}
	}
	return r.rank, iters
}

func (sg *ShardGroup) runCC() []int64 {
	n := sg.imgs[0].G.N
	r := &ccShardRun{sg: sg, label: make([]int64, n), inNext: make([]bool, n)}
	sg.step(r.seed)
	total := sg.swapFrontiers()
	// seed filled next; after the swap every vertex sits on cur.
	for total > 0 {
		sg.step(r.scatter)
		sg.step(r.apply)
		total = sg.swapFrontiers()
		r.buf = 1 - r.buf
	}
	return r.label
}

func (sg *ShardGroup) runBC(k int) []float64 {
	g := sg.imgs[0].G
	n := g.N
	r := &bcShardRun{
		sg:     sg,
		bc:     make([]float64, n),
		dist:   make([]int32, n),
		sigma:  make([]float64, n),
		delta:  make([]float64, n),
		revCnt: make([]int, len(sg.imgs)),
	}
	for _, src := range bcSources(g, k) {
		r.src = src
		sg.step(r.reset)
		total := sg.swapFrontiers()
		r.level = 0
		r.buf = 0
		for total > 0 {
			r.level++
			sg.step(r.scatter)
			sg.step(r.apply)
			total = sg.swapFrontiers()
			r.buf = 1 - r.buf
		}
		// Pull-based level-synchronous reverse sweep: vertices at the
		// deepest level carry no successors, each earlier level reads
		// only finalized deeper-level state across the barrier.
		for lvl := r.level - 1; lvl >= 0; lvl-- {
			r.level = lvl
			sg.step(r.reverse)
		}
	}
	return r.bc
}
