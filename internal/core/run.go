package core

import (
	"fmt"
	"math"

	"graphmem/internal/analytics"
	"graphmem/internal/cache"
	"graphmem/internal/check"
	"graphmem/internal/cost"
	"graphmem/internal/graph"
	"graphmem/internal/machine"
	"graphmem/internal/memsys"
	"graphmem/internal/oskernel"
	"graphmem/internal/profile"
	"graphmem/internal/reorder"
	"graphmem/internal/tlb"
	"graphmem/internal/vm"
	"graphmem/internal/workload"
)

// NoPressure as Environment.PressureDelta means "do not run memhog".
const NoPressure = int64(math.MaxInt64)

// Environment describes the system state the workload runs in.
type Environment struct {
	// MemoryBytes is the node's physical memory. Zero selects a
	// default of 4× the working set (the paper's node holds 2.5–7.5×
	// the WSS of its configurations).
	MemoryBytes uint64

	// AgedFraction poisons this fraction of all 2MB regions with one
	// scattered non-movable page before anything runs, emulating a
	// long-running host. Zero is a fresh boot.
	AgedFraction float64

	// PressureDelta is the free memory left beyond the working set
	// after memhog pins the rest (the paper's "WSS+Δ" levels). It may
	// be negative (oversubscription). NoPressure disables memhog.
	PressureDelta int64

	// FragLevel fragments this fraction of the available memory with
	// non-movable pages after memhog (the paper's frag utility).
	FragLevel float64

	// PageCacheBytes models naive file loading: this much single-use
	// page cache is resident when the application starts faulting.
	// Zero models the paper's tmpfs-on-remote-node mitigation.
	PageCacheBytes uint64

	// ChurnBytes, when non-zero, runs a co-runner whose anonymous
	// footprint oscillates between 0 and this many bytes while the
	// application executes — dynamic memory pressure, the case the
	// paper's static memhog levels approximate. ChurnIntervalCycles
	// sets the oscillation step cadence (default ~1M cycles).
	ChurnBytes          uint64
	ChurnIntervalCycles uint64

	Seed uint64
}

// FreshBoot is the unconstrained environment of Fig. 1's "no memory
// pressure" bars: all memory free and contiguous.
func FreshBoot() Environment {
	return Environment{PressureDelta: NoPressure}
}

// AgedFractionDefault is the ambient non-movable fragmentation used by
// the pressured environments. Calibrated so the paper's "low pressure"
// threshold (≈2.5GB of slack on 8.5–25GB working sets) scales through:
// huge page supply ≈ (1−f)·(WSS+Δ) crosses WSS at Δ ≈ WSS·f/(1−f) ≈
// 0.14·WSS, matching the paper's phase boundaries at their footprints.
const AgedFractionDefault = 0.125

// Pressured is the paper's constrained-memory environment: an aged
// system with memhog pinning all but WSS+delta bytes.
func Pressured(delta int64) Environment {
	return Environment{AgedFraction: AgedFractionDefault, PressureDelta: delta}
}

// Fragmented is the paper's fragmentation environment: low memory
// pressure (WSS+delta free) with `level` of the available memory
// poisoned by non-movable pages.
func Fragmented(delta int64, level float64) Environment {
	return Environment{
		AgedFraction:  AgedFractionDefault,
		PressureDelta: delta,
		FragLevel:     level,
	}
}

// RunSpec fully describes one experiment run.
type RunSpec struct {
	Graph   *graph.Graph
	App     analytics.App
	Reorder reorder.Method
	Order   analytics.AllocOrder
	Policy  Policy
	Env     Environment

	// Hardware configuration; zero values select the paper's Table 1
	// machine and default cost model.
	TLB   tlb.Config
	Cache cache.Config
	Cost  *cost.Model

	// SimulatePageTables enables the high-fidelity walk model: paging
	// structures consume simulated memory and walks fetch entries
	// through the cache hierarchy (see machine.Config).
	SimulatePageTables bool

	// SampleSupplyEvery, when non-zero, samples the huge page economy
	// every that-many simulated cycles into RunResult.Supply — the
	// measured version of the paper's Fig. 6 narrative (huge page
	// regions being consumed as arrays allocate).
	SampleSupplyEvery uint64

	// Run selects kernel parameters; zero selects defaults (max-degree
	// root, ε=1e-4, ≤10 PR iterations).
	Run analytics.RunOptions

	// Shards selects the sharded machine engine (DESIGN.md §5c): the
	// graph is partitioned into this many contiguous vertex windows,
	// each simulated by its own forked machine, with the kernel run as
	// an owner-computes bulk-synchronous program. 0 or 1 runs the
	// monolithic engine. The shard count is semantic — it changes the
	// modeled system — while the number of worker goroutines driving
	// the shards is an execution detail (GOMAXPROCS, clamped to the
	// shard count) that never changes output. Sharded runs
	// require SnapshotSafe specs (no churn co-runner, no supply
	// sampler).
	Shards int

	// PreReorderCost, when non-nil, declares that Graph has already
	// been reordered externally (by the method named in Reorder) at
	// this preprocessing cost. Run charges the cost but performs no
	// relabeling — the experiment harness uses this to reorder each
	// dataset once and share it across dozens of runs.
	PreReorderCost *reorder.Cost
}

// RunResult carries everything the experiment harness reports.
type RunResult struct {
	Spec RunSpec

	WSSBytes    uint64
	MemoryBytes uint64

	PreprocessCycles uint64
	InitCycles       uint64
	KernelCycles     uint64

	// TotalCycles = preprocess + init + kernel: the paper's
	// end-to-end accounting (preprocessing "accounted for when
	// measuring application runtimes").
	TotalCycles uint64

	Init   machine.PhaseStats
	Kernel machine.PhaseStats

	Arrays []machine.ArrayStats
	OS     oskernel.Stats

	// Huge page usage at the end of the run.
	PropHugeBytes  uint64
	TotalHugeBytes uint64
	MappedBytes    uint64

	// Supply holds the huge-page-economy timeline when
	// RunSpec.SampleSupplyEvery was set.
	Supply []SupplySample

	// ShardKernelCycles holds each shard machine's kernel-phase cycles
	// when RunSpec.Shards > 1 (KernelCycles is then the barrier
	// makespan over these, not their sum). Nil for monolithic runs.
	ShardKernelCycles []uint64

	Output analytics.Result
}

// SupplySample is one point of the huge page economy: how many free 2MB
// blocks remain and how much of each key array is huge-backed.
type SupplySample struct {
	Cycles         uint64
	FreeHugeBlocks uint64
	EdgeHugeBytes  uint64
	PropHugeBytes  uint64
}

// HugeShareOfFootprint is the fraction of the application's mapped
// memory backed by huge pages — the paper's "x% of the memory
// resources" headline metric.
func (r *RunResult) HugeShareOfFootprint() float64 {
	if r.MappedBytes == 0 {
		return 0
	}
	return float64(r.TotalHugeBytes) / float64(r.MappedBytes)
}

// Run executes one configuration end to end: the load phase
// (environment staging, mmap, madvise, init faulting) followed by the
// kernel phase on the same machine. A campaign runs every cell this
// way (exp.Suite), and forked runs are diffed against it. Prepare
// instead freezes the load phase so that it can be saved, reloaded and
// forked where several kernels start from it (snapshot.go).
func Run(spec RunSpec) (*RunResult, error) {
	p, err := prepare(spec)
	if err != nil {
		return nil, err
	}
	return p.finish(p.m, p.img), nil
}

// prepared is a machine carried through the load phase: environment
// staged, image mapped and advised, init phase complete and audited.
// It is the state a Checkpoint snapshots; finish runs the kernel phase
// on it (or on a fork of it) and assembles the RunResult.
type prepared struct {
	spec      RunSpec // normalized: hardware defaults filled in
	g         *graph.Graph
	wss       uint64
	memBytes  uint64
	preCycles uint64
	m         *machine.Machine
	img       *analytics.Image
	supply    []SupplySample

	// cuts holds the shard vertex partition (len Shards+1) when
	// spec.Shards > 1; nil otherwise (shard.go).
	cuts []uint32
}

// stage computes everything prepare derives before a machine exists:
// spec normalization (hardware defaults), preprocessing (reordering and
// shard partitioning, with their charged cycles), the working-set size
// and the node size. It is pure — no simulator state, no randomness —
// which is what lets LoadCheckpoint re-derive this half of a prepared
// run from the spec and splice the serialized machine underneath it
// (persist.go).
func stage(spec RunSpec) (*prepared, error) {
	if spec.Graph == nil {
		return nil, fmt.Errorf("core: RunSpec.Graph is nil")
	}
	if spec.TLB.Name == "" {
		spec.TLB = tlb.Haswell()
	}
	if spec.Cache.Name == "" {
		spec.Cache = cache.Haswell()
	}
	model := cost.Default()
	if spec.Cost != nil {
		model = *spec.Cost
	}
	spec.Cost = &model

	// Preprocessing (reordering) happens before the machine exists:
	// the paper performs it "separately in order to not interfere with
	// the available memory for huge pages" but charges its time.
	if spec.Shards > 1 && !SnapshotSafe(spec) {
		return nil, fmt.Errorf("core: RunSpec.Shards=%d requires a snapshot-safe spec (no churn co-runner, no supply sampler): shard bring-up forks the prepared machine", spec.Shards)
	}
	if spec.Shards > 255 {
		return nil, fmt.Errorf("core: RunSpec.Shards=%d exceeds the engine's 255-shard owner table", spec.Shards)
	}

	g := spec.Graph
	var preCycles uint64
	switch {
	case spec.PreReorderCost != nil:
		c := *spec.PreReorderCost
		preCycles = uint64(c.VertexTraversals)*model.PreprocPerVertex +
			uint64(c.EdgeTraversals)*model.PreprocPerEdge
	case spec.Reorder != reorder.Identity:
		var c reorder.Cost
		g, c = reorder.Apply(g, spec.Reorder, spec.Env.Seed+1)
		preCycles = uint64(c.VertexTraversals)*model.PreprocPerVertex +
			uint64(c.EdgeTraversals)*model.PreprocPerEdge
	}

	// Shard partitioning is preprocessing too: a degree scan over the
	// final (post-reorder) vertex order, charged like reordering.
	var cuts []uint32
	if spec.Shards > 1 {
		var c reorder.Cost
		cuts, c = reorder.Partition(g, spec.Shards)
		preCycles += uint64(c.VertexTraversals)*model.PreprocPerVertex +
			uint64(c.EdgeTraversals)*model.PreprocPerEdge
	}

	wss := analytics.WSSBytes(spec.App, g)

	memBytes := spec.Env.MemoryBytes
	if memBytes == 0 {
		memBytes = 4 * wss
		const minMem = 64 << 20
		if memBytes < minMem {
			memBytes = minMem
		}
	}
	return &prepared{
		spec:      spec,
		g:         g,
		wss:       wss,
		memBytes:  memBytes,
		preCycles: preCycles,
		cuts:      cuts,
	}, nil
}

// prepare executes everything up to (and including) the init phase.
func prepare(spec RunSpec) (*prepared, error) {
	p, err := stage(spec)
	if err != nil {
		return nil, err
	}
	spec = p.spec
	g, wss, memBytes := p.g, p.wss, p.memBytes
	model := *spec.Cost

	kcfg := spec.Policy.kernelConfig()
	if spec.Policy.HugetlbProp && spec.Policy.PropPercent > 0 {
		propBytes := uint64(g.N) * analytics.PropEntryBytes(spec.App)
		fullRegions := propBytes / memsys.HugeSize
		kcfg.HugetlbReserve = int(math.Ceil(spec.Policy.PropPercent * float64(fullRegions)))
	}
	m := machine.New(machine.Config{
		MemoryBytes:        memBytes,
		TLB:                spec.TLB,
		Cache:              spec.Cache,
		Cost:               model,
		Kernel:             kcfg,
		SimulatePageTables: spec.SimulatePageTables,
	})

	// Stage the environment: age → memhog → frag → page cache.
	workload.AgeSystem(m.Mem, spec.Env.AgedFraction, spec.Env.Seed)
	if spec.Env.PressureDelta != NoPressure {
		freeB := int64(m.Mem.FreePages()) * memsys.PageSize
		hog := freeB - int64(wss) - spec.Env.PressureDelta
		// Even under deep oversubscription a real machine keeps a
		// minimum free pool (watermarks); without it the application
		// could not fault in its first pages to have anything to swap.
		if max := freeB - 16*memsys.PageSize; hog > max {
			hog = max
		}
		if hog > 0 {
			workload.NewMemhog(m.Mem, uint64(hog))
		}
	}
	if spec.Env.FragLevel > 0 {
		workload.Fragment(m.Mem, spec.Env.FragLevel)
	}
	if spec.Env.PageCacheBytes > 0 {
		pc := workload.NewPageCache(m.Mem)
		pc.Fill(spec.Env.PageCacheBytes)
	}
	if spec.Env.ChurnBytes > 0 {
		interval := spec.Env.ChurnIntervalCycles
		if interval == 0 {
			interval = 1_000_000
		}
		ch := workload.NewChurner(m.Mem, spec.Env.ChurnBytes, 256)
		// The co-runner was already mid-phase when the application
		// started: grow to half footprint so initialization contends
		// with it from the first fault.
		for ch.ResidentBytes() < spec.Env.ChurnBytes/2 {
			before := ch.ResidentBytes()
			ch.Step()
			if ch.ResidentBytes() == before {
				break // memory exhausted; churner backed off
			}
		}
		m.AddTicker(interval, func(uint64) { ch.Step() })
	}

	auditMachine(m) // environment staged: allocator must already be consistent

	img, err := analytics.NewImage(m, g, spec.App)
	if err != nil {
		return nil, err
	}
	applyAdvice(img, spec.Policy)

	p.m = m
	p.img = img
	if spec.SampleSupplyEvery > 0 {
		m.AddTicker(spec.SampleSupplyEvery, func(now uint64) {
			_, edgeHuge := img.Edge.MappedBytes()
			_, propHuge := img.Prop.MappedBytes()
			p.supply = append(p.supply, SupplySample{
				Cycles:         now,
				FreeHugeBlocks: m.Mem.FreeHugeBlocks(),
				EdgeHugeBytes:  edgeHuge,
				PropHugeBytes:  propHuge,
			})
		})
	}

	img.Init(spec.Order)
	auditMachine(m) // faults, THP promotion, compaction and reclaim all ran
	return p, nil
}

// finish runs the kernel phase on m/img — either the prepared machine
// itself (the monolithic Run path) or a Fork of it (the Checkpoint
// path) — and assembles the RunResult. It reads the prepared state but
// never mutates it, so one Checkpoint can finish any number of forks.
func (p *prepared) finish(m *machine.Machine, img *analytics.Image) *RunResult {
	if p.spec.Shards > 1 {
		return p.finishSharded(m, img)
	}
	out := img.Run(p.runOptions())
	auditMachine(m) // end of kernel: final layout must balance

	phases := m.FinishPhases()
	res := &RunResult{
		Spec:             p.spec,
		WSSBytes:         p.wss,
		MemoryBytes:      p.memBytes,
		PreprocessCycles: p.preCycles,
		Arrays:           m.ArrayStats(),
		OS:               m.Kernel.Stats(),
		Supply:           p.supply,
		Output:           out,
	}
	for _, p := range phases {
		switch p.Name {
		case "init":
			res.Init = p
			res.InitCycles = p.Cycles
		case "kernel":
			res.Kernel = p
			res.KernelCycles = p.Cycles
		}
	}
	res.TotalCycles = res.PreprocessCycles + res.InitCycles + res.KernelCycles

	for _, v := range []*vm.VMA{img.Vertex, img.Edge, img.Values, img.Prop, img.Work} {
		if v == nil {
			continue
		}
		total, huge := v.MappedBytes()
		res.MappedBytes += total
		res.TotalHugeBytes += huge
		if v == img.Prop {
			res.PropHugeBytes = huge
		}
	}
	return res
}

// runOptions returns the kernel options the spec asks for, or the
// graph's defaults when it sets neither a root nor a PageRank cap.
func (p *prepared) runOptions() analytics.RunOptions {
	if opts := p.spec.Run; opts.Root != 0 || opts.PRMaxIters != 0 {
		return opts
	}
	return analytics.DefaultRunOptions(p.g)
}

// auditMachine runs the simcheck invariant audits over every stateful
// simulator layer. Under the default build (check.Enabled == false) the
// scans are skipped entirely; under -tags simcheck a violated invariant
// panics with a check.Failure naming the broken structure.
func auditMachine(m *machine.Machine) {
	check.Audit("memsys", m.Mem.CheckInvariants)
	check.Audit("vm", m.Space.CheckInvariants)
	check.Audit("tlb", m.TLB.CheckInvariants)
}

// applyAdvice issues the policy's madvise calls on the freshly-mapped
// image, before any page faults occur.
func applyAdvice(img *analytics.Image, p Policy) {
	advise := func(v *vm.VMA, on bool) {
		if v != nil && on {
			v.Madvise(0, v.Bytes, vm.AdviceHuge)
		}
	}
	advise(img.Vertex, p.AdviseVertex)
	advise(img.Edge, p.AdviseEdge)
	advise(img.Values, p.AdviseValues)
	advise(img.Work, p.AdviseWork)
	if p.PropPercent > 0 {
		bytes := uint64(p.PropPercent * float64(img.Prop.Bytes))
		if bytes > 0 {
			img.Prop.Madvise(0, bytes, vm.AdviceHuge)
		}
	}
	if p.AutoBudgetBytes > 0 || p.AutoCoverage > 0 {
		prof := profile.New(img.G, analytics.PropEntryBytes(img.App))
		var plan profile.Plan
		if p.AutoBudgetBytes > 0 {
			plan = prof.PlanBudget(p.AutoBudgetBytes)
		} else {
			plan = prof.PlanCoverage(p.AutoCoverage)
		}
		for _, r := range plan.Regions {
			img.Prop.Madvise(uint64(r)*memsys.HugeSize, memsys.HugeSize, vm.AdviceHuge)
		}
	}
}
