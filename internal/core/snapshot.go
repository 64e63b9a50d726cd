package core

import (
	"fmt"

	"graphmem/internal/analytics"
	"graphmem/internal/cache"
	"graphmem/internal/check"
	"graphmem/internal/ckpt"
	"graphmem/internal/graph"
	"graphmem/internal/machine"
	"graphmem/internal/memsys"
	"graphmem/internal/stats"
	"graphmem/internal/tlb"
	"graphmem/internal/vm"
	"graphmem/internal/workload"
)

// This file is the snapshot/fork layer over the load phase (DESIGN.md
// §5b): a Checkpoint freezes a machine immediately after the init
// phase, and every kernel that shares that load phase runs on a fork
// of the frozen state instead of replaying environment staging and
// init faulting from scratch. Forks are audited deep copies derived
// from the same single state walk per type that save and load use
// (DESIGN.md §5e) — the machine, its address space, physical node,
// kernel policy engine, TLB and cache hierarchies, and the frame owners
// that live outside the machine (memhog, page cache) — so a forked
// kernel produces bit-identical cycles and statistics to the monolithic
// Run path. TestForkMatchesReplay holds every fork to Run, and
// TestShardedForkMatchesReplay and exp's TestRolloutForkMatchesReplay
// hold shard and mid-probe forks to machines prepared from the spec.

// SnapshotSafe reports whether spec's load phase can be checkpointed
// and forked. Specs that register machine tickers — a churning
// co-runner or a supply sampler — are excluded: tickers are closures
// over state outside the machine, which a deep copy cannot capture
// (machine.Forkable). Such cells run monolithically via Run.
func SnapshotSafe(spec RunSpec) bool {
	return spec.Env.ChurnBytes == 0 && spec.SampleSupplyEvery == 0
}

// Checkpoint is a load phase frozen for forking: the machine state the
// moment init completed. Fork yields independent machine+image pairs
// that all start from that state; Run executes the spec's own kernel
// phase on such a fork.
type Checkpoint struct {
	p *prepared
}

// Prepare runs spec's load phase once and freezes it. It fails on
// specs that are not SnapshotSafe and on any load-phase error Run
// would report.
func Prepare(spec RunSpec) (*Checkpoint, error) {
	if !SnapshotSafe(spec) {
		return nil, fmt.Errorf("core: spec registers machine tickers (churn or supply sampling); run it monolithically")
	}
	p, err := prepare(spec)
	if err != nil {
		return nil, err
	}
	return &Checkpoint{p: p}, nil
}

// Fork returns an independent machine+image pair positioned at the end
// of the load phase: a ForkPair of the frozen machine and its image.
// The error is always nil.
func (cp *Checkpoint) Fork() (*machine.Machine, *analytics.Image, error) {
	fm, img := ForkPair(cp.p.m, cp.p.img)
	return fm, img, nil
}

// ForkPair deep-copies a machine+image pair positioned anywhere in a
// run — right after init (what Checkpoint.Fork does) or mid-kernel (the
// rollout experiment forks a warmed machine once per candidate policy)
// — with the same state walk Save and LoadCheckpoint use (walkPair).
// The result is audited (under -tags simcheck) before use.
func ForkPair(m *machine.Machine, img *analytics.Image) (*machine.Machine, *analytics.Image) {
	walkPair(ckpt.Cloner(), &m, &img, img.G)
	auditMachine(m)
	return m, img
}

// walkPair is the one state walk behind every fork, save, and load of a
// machine+image pair: the machine, with frame owners living outside it
// resolved by externalOwner, then the image bound to the walked machine
// and to g, the spec's graph.
func walkPair(w *ckpt.Walker, m **machine.Machine, img **analytics.Image, g *graph.Graph) {
	machine.Walk(w, m, externalOwner)
	if !w.Failed() {
		analytics.Walk(w, img, *m, g)
	}
}

// External frame-owner subtags, one per owner type a staged machine can
// carry outside itself.
const (
	ownerMemhog    = 1 // *workload.Memhog
	ownerPageCache = 2 // *workload.PageCache
)

// ownerRows names each subtag's footprint row.
var ownerRows = [...]string{ownerMemhog: "workload/memhog", ownerPageCache: "workload/pagecache"}

// ownerTag returns o's subtag, or 0 for an owner type with no state walk.
func ownerTag(o memsys.Owner) uint8 {
	switch o.(type) {
	case *workload.Memhog:
		return ownerMemhog
	case *workload.PageCache:
		return ownerPageCache
	}
	return 0
}

// externalOwner is the memsys owner hook for frame owners living outside
// the machine — the memhog's pin list, the page cache's resident set.
// memsys calls it once per owner-table slot, so each is forked exactly
// once per fork. An owner type it does not know fails the walk (a fork
// panics): an unaccounted owner means an incomplete snapshot.
func externalOwner(w *ckpt.Walker, o memsys.Owner, mem *memsys.Memory) memsys.Owner {
	tag := ownerTag(o)
	ckpt.Num(w, &tag)
	switch tag {
	case ownerMemhog:
		h, _ := o.(*workload.Memhog)
		workload.WalkMemhog(w, &h, mem)
		return h
	case ownerPageCache:
		pc, _ := o.(*workload.PageCache)
		workload.WalkPageCache(w, &pc, mem)
		return pc
	}
	w.Failf("core: frame owner %T (subtag %d) has no state walk", o, tag)
	return nil
}

// Footprint reports the host bytes the state of a machine and its image
// costs, one row per subsystem (stats.Footprint). Each row is the
// payload size of that subsystem's state walk (ckpt.Size):
// memsys/frames is the node without its owners, vm/tables the address
// space with its region heat, tlb+cache the two model hierarchies, and
// each frame owner outside the machine has a row of its own. The
// machine row is the rest of walkPair: the machine's scalars and cost
// model, the kernel, phase and array accounting, the owner tags and the
// image's array references. So the rows sum to exactly the payload
// Checkpoint.Save writes for the pair. A pair whose walk fails
// (tickers registered, shadow mirroring on) has no footprint, and
// Footprint panics rather than report a partial count.
func Footprint(m *machine.Machine, img *analytics.Image) stats.Footprint {
	size := func(walk func(*ckpt.Walker)) uint64 {
		n, err := ckpt.Size(walk)
		if err != nil {
			panic(check.Failf("core: footprint: %v", err))
		}
		return n
	}
	var owners []memsys.Owner
	f := stats.Footprint{SimulatedBytes: m.Mem.TotalPages() * memsys.PageSize}
	f.Add("memsys/frames", size(func(w *ckpt.Walker) {
		memsys.Walk(w, &m.Mem, func(_ *ckpt.Walker, o memsys.Owner, _ *memsys.Memory) memsys.Owner {
			if o != memsys.Owner(m.Space) {
				owners = append(owners, o)
			}
			return o
		})
	}))
	f.Add("vm/tables", size(func(w *ckpt.Walker) { vm.Walk(w, &m.Space) }))
	f.Add("tlb+cache", size(func(w *ckpt.Walker) {
		tlb.Walk(w, &m.TLB)
		cache.Walk(w, &m.Cache)
	}))
	machineRow := len(f.Rows)
	f.Add("machine", 0) // the rest of walkPair, once every other row is counted
	for _, o := range owners {
		f.Add(ownerRows[ownerTag(o)], size(func(w *ckpt.Walker) { externalOwner(w, o, m.Mem) }))
	}
	f.Rows[machineRow].Bytes = size(func(w *ckpt.Walker) { walkPair(w, &m, &img, img.G) }) - f.TotalBytes()
	return f
}

// Run executes the spec's kernel phase on a fresh Fork and assembles
// the RunResult, exactly as the monolithic Run would have. The error is
// always nil.
func (cp *Checkpoint) Run() (*RunResult, error) {
	fm, img := ForkPair(cp.p.m, cp.p.img)
	return cp.p.finish(fm, img), nil
}

// Footprint reports the frozen pair's simulator-side memory breakdown
// (Footprint). ok is always true.
func (cp *Checkpoint) Footprint() (fp stats.Footprint, ok bool) {
	return Footprint(cp.p.m, cp.p.img), true
}
