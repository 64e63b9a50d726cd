//simlint:shardworker

// Per-shard worker bodies of the sharded kernel mode (DESIGN.md §5c).
// Every function in this file runs concurrently with its siblings, one
// invocation per shard, between two barriers. The isolation contract —
// enforced interprocedurally by rule SL014 — is that nothing here (or
// anything reachable from here) writes shared global state: a worker
// may touch only its own shard's machine and stream, its own windows
// of the shared algorithm slices (hops, dist, rank, …), its own outbox
// row, and the inbox cells it owns as the destination. Simulated addresses
// are not so restricted: each shard machine maps the full logical
// address space, and the BC reverse sweep deliberately reads
// finalized remote property addresses, charged to the local machine
// (MODEL.md).
package analytics

import (
	"math"

	"graphmem/internal/graph"
)

// sendAll scatters one vertex's full neighbor run as messages: the
// CSR offsets are read (two adjacent vertex-array entries), the
// neighbor IDs stream from the edge array in one bulk run, and each
// edge enqueues (w, x(e)) on the owner's inbox. Message transport
// itself charges nothing — it models on-chip work distribution, not a
// memory access (MODEL.md).
func (sg *ShardGroup) sendAll(sh int, v uint32, x func(e uint64, w uint32) uint64) {
	img, s := sg.imgs[sh], sg.st[sh]
	g := img.G
	s.run(img.vertexAddr(v), 2, graph.VertexEntryBytes)
	lo, hi := g.Offsets[v], g.Offsets[v+1]
	s.run(img.edgeAddr(lo), int(hi-lo), graph.EdgeEntryBytes)
	row := sg.out[sh]
	for e := lo; e < hi; e++ {
		w := g.Neighbors[e]
		d := sg.owner[w]
		row[d] = append(row[d], shardMsg{w: w, x: x(e, w)})
	}
}

// --- BFS ---------------------------------------------------------------

type bfsShardRun struct {
	sg    *ShardGroup
	hops  []int64
	root  uint32
	level int64
	buf   int
}

func (r *bfsShardRun) seed(sh int) {
	sg := r.sg
	img, s := sg.imgs[sh], sg.st[sh]
	s.access(img.workAddr(0, int(sg.cuts[sh]))) // push root
	s.access(img.propAddr(r.root))              // initialize root's property entry
	sg.cur[sh] = append(sg.cur[sh][:0], r.root)
}

func (r *bfsShardRun) scatter(sh int) {
	sg := r.sg
	img, s := sg.imgs[sh], sg.st[sh]
	base := int(sg.cuts[sh])
	for i, v := range sg.cur[sh] {
		s.access(img.workAddr(r.buf, base+i)) // pop v from the worklist
		sg.sendAll(sh, v, func(uint64, uint32) uint64 { return 0 })
	}
}

func (r *bfsShardRun) apply(sh int) {
	sg := r.sg
	img, s := sg.imgs[sh], sg.st[sh]
	base := int(sg.cuts[sh])
	next := sg.next[sh][:0]
	for src := range sg.imgs {
		msgs := sg.out[src][sh]
		for _, msg := range msgs {
			w := msg.w
			s.access(img.propAddr(w)) // irregular property read
			if r.hops[w] == -1 {
				r.hops[w] = r.level
				s.access(img.propAddr(w)) // property write
				s.access(img.workAddr(1-r.buf, base+len(next)))
				next = append(next, w)
			}
		}
		sg.out[src][sh] = msgs[:0]
	}
	sg.next[sh] = next
}

// --- SSSP --------------------------------------------------------------

type ssspShardRun struct {
	sg     *ShardGroup
	dist   []int64
	inNext []bool
	root   uint32
	buf    int
}

func (r *ssspShardRun) seed(sh int) {
	sg := r.sg
	img, s := sg.imgs[sh], sg.st[sh]
	s.access(img.workAddr(0, int(sg.cuts[sh])))
	s.access(img.propAddr(r.root))
	sg.cur[sh] = append(sg.cur[sh][:0], r.root)
}

func (r *ssspShardRun) scatter(sh int) {
	sg := r.sg
	img, s := sg.imgs[sh], sg.st[sh]
	g := img.G
	base := int(sg.cuts[sh])
	for i, v := range sg.cur[sh] {
		s.access(img.workAddr(r.buf, base+i))
		dv := r.dist[v]
		// The weights stream alongside the neighbor IDs.
		lo, hi := g.Offsets[v], g.Offsets[v+1]
		s.run(img.valueAddr(lo), int(hi-lo), graph.ValueEntryBytes)
		sg.sendAll(sh, v, func(e uint64, _ uint32) uint64 {
			return uint64(dv + int64(g.Weights[e]))
		})
	}
}

func (r *ssspShardRun) apply(sh int) {
	sg := r.sg
	img, s := sg.imgs[sh], sg.st[sh]
	base := int(sg.cuts[sh])
	next := sg.next[sh][:0]
	for src := range sg.imgs {
		msgs := sg.out[src][sh]
		for _, msg := range msgs {
			w := msg.w
			nd := int64(msg.x)
			s.access(img.propAddr(w)) // property read
			if r.dist[w] == -1 || nd < r.dist[w] {
				r.dist[w] = nd
				s.access(img.propAddr(w)) // property write
				if !r.inNext[w] {
					r.inNext[w] = true
					s.access(img.workAddr(1-r.buf, base+len(next)))
					next = append(next, w)
				}
			}
		}
		sg.out[src][sh] = msgs[:0]
	}
	for _, w := range next {
		r.inNext[w] = false
	}
	sg.next[sh] = next
}

// --- PageRank ----------------------------------------------------------

type prShardRun struct {
	sg       *ShardGroup
	rank     []float64
	nextRank []float64
	base     float64
	localMax []float64 // per-shard max rank delta this iteration
}

func (r *prShardRun) scatter(sh int) {
	sg := r.sg
	img, s := sg.imgs[sh], sg.st[sh]
	g := img.G
	for v := sg.cuts[sh]; v < sg.cuts[sh+1]; v++ {
		s.run(img.vertexAddr(v), 2, graph.VertexEntryBytes)
		lo, hi := g.Offsets[v], g.Offsets[v+1]
		deg := hi - lo
		if deg == 0 {
			continue
		}
		s.access(img.propAddr(v)) // sequential read of rank[v]
		contrib := prDamping * r.rank[v] / float64(deg)
		bits := math.Float64bits(contrib)
		s.run(img.edgeAddr(lo), int(deg), graph.EdgeEntryBytes)
		row := sg.out[sh]
		for e := lo; e < hi; e++ {
			w := g.Neighbors[e]
			d := sg.owner[w]
			row[d] = append(row[d], shardMsg{w: w, x: bits})
		}
	}
}

func (r *prShardRun) apply(sh int) {
	sg := r.sg
	img, s := sg.imgs[sh], sg.st[sh]
	lo, hi := sg.cuts[sh], sg.cuts[sh+1]
	for v := lo; v < hi; v++ {
		r.nextRank[v] = 0
	}
	for src := range sg.imgs {
		msgs := sg.out[src][sh]
		for _, msg := range msgs {
			s.access(img.propAddr(msg.w) + 8) // next-rank RMW scatter
			r.nextRank[msg.w] += math.Float64frombits(msg.x)
		}
		sg.out[src][sh] = msgs[:0]
	}
	// Sequential fold of next into rank over the owned window: one
	// property write per vertex, streamed as a single bulk run.
	if hi > lo {
		s.run(img.propAddr(lo), int(hi-lo), PropEntryBytes(img.App))
	}
	var maxDelta float64
	for v := lo; v < hi; v++ {
		nr := r.nextRank[v] + r.base
		if d := math.Abs(nr - r.rank[v]); d > maxDelta {
			maxDelta = d
		}
		r.rank[v] = nr
	}
	r.localMax[sh] = maxDelta
}

// --- Connected Components ----------------------------------------------

type ccShardRun struct {
	sg     *ShardGroup
	label  []int64
	inNext []bool
	buf    int
}

// seed is CC's initial superstep: every shard initializes and enqueues
// its own window (label write + worklist push per vertex).
func (r *ccShardRun) seed(sh int) {
	sg := r.sg
	img, s := sg.imgs[sh], sg.st[sh]
	next := sg.next[sh][:0]
	for v := sg.cuts[sh]; v < sg.cuts[sh+1]; v++ {
		r.label[v] = int64(v)
		s.access(img.propAddr(v))         // initialize label
		s.access(img.workAddr(0, int(v))) // enqueue everyone
		next = append(next, v)
	}
	sg.next[sh] = next
}

func (r *ccShardRun) scatter(sh int) {
	sg := r.sg
	img, s := sg.imgs[sh], sg.st[sh]
	base := int(sg.cuts[sh])
	for i, v := range sg.cur[sh] {
		s.access(img.workAddr(r.buf, base+i))
		lv := uint64(r.label[v])
		sg.sendAll(sh, v, func(uint64, uint32) uint64 { return lv })
	}
}

func (r *ccShardRun) apply(sh int) {
	sg := r.sg
	img, s := sg.imgs[sh], sg.st[sh]
	base := int(sg.cuts[sh])
	next := sg.next[sh][:0]
	for src := range sg.imgs {
		msgs := sg.out[src][sh]
		for _, msg := range msgs {
			w := msg.w
			lv := int64(msg.x)
			s.access(img.propAddr(w)) // read neighbor label
			if r.label[w] > lv {
				r.label[w] = lv
				s.access(img.propAddr(w)) // write
				if !r.inNext[w] {
					r.inNext[w] = true
					s.access(img.workAddr(1-r.buf, base+len(next)))
					next = append(next, w)
				}
			}
		}
		sg.out[src][sh] = msgs[:0]
	}
	for _, w := range next {
		r.inNext[w] = false
	}
	sg.next[sh] = next
}

// --- Betweenness Centrality --------------------------------------------

type bcShardRun struct {
	sg     *ShardGroup
	bc     []float64
	dist   []int32
	sigma  []float64
	delta  []float64
	src    uint32
	level  int32
	buf    int
	revCnt []int // per-shard reverse-sweep pop counter (resets per source)
}

// reset is the per-source superstep: each shard streams a dist-field
// reset over its property window and the source's owner seeds the
// frontier.
func (r *bcShardRun) reset(sh int) {
	sg := r.sg
	img, s := sg.imgs[sh], sg.st[sh]
	lo, hi := sg.cuts[sh], sg.cuts[sh+1]
	if hi > lo {
		s.run(img.propAddr(lo), int(hi-lo), bcPropEntryBytes)
	}
	for v := lo; v < hi; v++ {
		r.dist[v] = -1
		r.sigma[v] = 0
		r.delta[v] = 0
	}
	r.revCnt[sh] = 0
	next := sg.next[sh][:0]
	if r.src >= lo && r.src < hi {
		r.dist[r.src] = 0
		r.sigma[r.src] = 1
		s.access(img.propAddr(r.src) + 8) // sigma write
		s.access(img.workAddr(0, int(lo)))
		next = append(next, r.src)
	}
	sg.next[sh] = next
}

func (r *bcShardRun) scatter(sh int) {
	sg := r.sg
	img, s := sg.imgs[sh], sg.st[sh]
	base := int(sg.cuts[sh])
	for i, v := range sg.cur[sh] {
		s.access(img.workAddr(r.buf, base+i))
		sv := math.Float64bits(r.sigma[v])
		sg.sendAll(sh, v, func(uint64, uint32) uint64 { return sv })
	}
}

func (r *bcShardRun) apply(sh int) {
	sg := r.sg
	img, s := sg.imgs[sh], sg.st[sh]
	base := int(sg.cuts[sh])
	next := sg.next[sh][:0]
	for src := range sg.imgs {
		msgs := sg.out[src][sh]
		for _, msg := range msgs {
			w := msg.w
			s.access(img.propAddr(w)) // dist read
			if r.dist[w] == -1 {
				r.dist[w] = r.level
				s.access(img.workAddr(1-r.buf, base+len(next)))
				next = append(next, w)
			}
			if r.dist[w] == r.level {
				r.sigma[w] += math.Float64frombits(msg.x)
				s.access(img.propAddr(w) + 8) // sigma RMW
			}
		}
		sg.out[src][sh] = msgs[:0]
	}
	sg.next[sh] = next
}

// reverse processes the shard's window vertices sitting at the current
// level: Brandes' dependency accumulation over out-edges, reading each
// successor's finalized dist/sigma/delta (possibly remote, charged
// locally) and writing the owned delta and centrality entries.
func (r *bcShardRun) reverse(sh int) {
	sg := r.sg
	img, s := sg.imgs[sh], sg.st[sh]
	g := img.G
	base := int(sg.cuts[sh])
	for v := sg.cuts[sh]; v < sg.cuts[sh+1]; v++ {
		if r.dist[v] != r.level {
			continue
		}
		s.access(img.workAddr(0, base+r.revCnt[sh])) // pop the order stack
		r.revCnt[sh]++
		s.run(img.vertexAddr(v), 2, graph.VertexEntryBytes)
		dv := r.dist[v]
		sv := r.sigma[v]
		s.access(img.propAddr(v) + 8) // sigma read
		acc := 0.0
		lo, hi := g.Offsets[v], g.Offsets[v+1]
		s.run(img.edgeAddr(lo), int(hi-lo), graph.EdgeEntryBytes)
		for e := lo; e < hi; e++ {
			w := g.Neighbors[e]
			s.access(img.propAddr(w)) // dist read
			if r.dist[w] == dv+1 {
				s.access(img.propAddr(w) + 8)  // sigma read
				s.access(img.propAddr(w) + 16) // delta read
				acc += sv / r.sigma[w] * (1 + r.delta[w])
			}
		}
		r.delta[v] = acc
		s.access(img.propAddr(v) + 16) // delta write
		if v != r.src {
			r.bc[v] += r.delta[v]
		}
	}
}
