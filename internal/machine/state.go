package machine

import (
	"graphmem/internal/cache"
	"graphmem/internal/ckpt"
	"graphmem/internal/memsys"
	"graphmem/internal/oskernel"
	"graphmem/internal/tlb"
	"graphmem/internal/vm"
)

// State walk (DESIGN.md §5e). Machine.state lists the composed state
// vector in the order its rebuild dependencies need, identical for fork
// and decode: the address space first (it needs nothing), then physical
// memory (whose owner table points back at the space), then the bind
// step attaches the space to the node and routes its shootdowns here,
// then the kernel (bound to both), and finally the per-shard simulation
// state.
//
// Machines carrying tickers or a tracer can be neither forked nor
// saved: both reach state outside the machine, which no walk can
// capture, so the walk fails rather than silently dropping an actor.
// core.Prepare refuses the specs that register tickers
// (core.SnapshotSafe), so such runs stay on the monolithic core.Run
// path.

// Owner-table slot tags: which side of the machine boundary an owner
// lives on.
const (
	ownerSpace    = 1 // the machine's own address space
	ownerExternal = 2 // a workload structure; the caller's OwnerFunc follows
)

// Forkable reports whether the machine can be forked or saved: it
// carries no registered tickers and no tracer.
func (m *Machine) Forkable() bool {
	return len(m.tickers) == 0 && m.tracer == nil
}

// Walk forks, encodes, or decodes the machine *p owns. A fork is an
// independent deep copy: from the fork point the copy and the original
// evolve as two machines that happened to reach the same state, so
// identical access streams produce bit-identical cycle counts and
// statistics on both, and neither can observe the other. owner walks
// the frame owners living OUTSIDE the machine — workload structures
// such as a pinned memhog or a page cache — and may be nil when none
// exist; the machine's own address space is resolved internally. A
// decoded machine is validated as it is rebuilt; on any decoder error
// it must be discarded.
func Walk(w *ckpt.Walker, p **Machine, owner memsys.OwnerFunc) {
	ckpt.Ptr(w, p, func(m *Machine, w *ckpt.Walker) { m.state(w, owner) })
}

func (m *Machine) state(w *ckpt.Walker, owner memsys.OwnerFunc) {
	if !m.Forkable() {
		w.Failf("machine: %d tickers registered, tracer attached %t: actors outside the machine cannot be deep-copied or serialized",
			len(m.tickers), m.tracer != nil)
		return
	}
	// The access-engine hatches are per-process switches, not state: a
	// fork's shallow copy keeps the original's, and a loader applies its
	// own (core's applyAccessHatches).
	_, _ = m.noBulk, m.noGather
	// A cache stage lives only while a kernel streams, and no walk runs
	// then; its counters are host-side diagnostics.
	_, _, _ = m.stage, m.handoff, m.stageStats
	w.U64(&m.cycles)
	w.Bool(&m.simPT)
	w.U64(&m.nextEvent)
	ckpt.Fixed(w, &m.Model)
	orig := m.Space
	vm.Walk(w, &m.Space)
	if w.Failed() {
		return
	}
	memsys.Walk(w, &m.Mem, func(w *ckpt.Walker, o memsys.Owner, mem *memsys.Memory) memsys.Owner {
		tag := uint8(ownerExternal)
		if o != nil && o == memsys.Owner(orig) {
			tag = ownerSpace
		}
		ckpt.Num(w, &tag)
		switch {
		case tag == ownerSpace:
			return m.Space
		case tag == ownerExternal && owner != nil:
			return owner(w, o, mem)
		case tag != ownerExternal:
			w.Failf("machine: owner table slot tag %d unknown", tag)
		}
		return nil
	})
	if w.Failed() {
		return
	}
	if w.Encoder() == nil {
		m.bind()
	}
	if d := w.Decoder(); d != nil {
		m.Space.CheckFrames(d)
	}
	oskernel.Walk(w, &m.Kernel, m.Mem, m.Space)
	m.shardState.state(w)
	if d := w.Decoder(); d != nil {
		m.validate(d)
	}
}

// bind is the fork and decode bind step: the walked space attaches to
// the walked node and routes its shootdowns to this machine's
// translation cache, exactly as New wires them, and the machine starts
// with no tickers and no tracer.
func (m *Machine) bind() {
	m.Space.Bind(m.Mem, m.shootdown)
	m.tickers = nil
	m.tracer = nil
}

// validate fails the decoder unless the per-array attribution and the
// page-table flag agree with the decoded address space.
func (m *Machine) validate(d *ckpt.Decoder) {
	if d.Err() != nil {
		return
	}
	// Per-array attribution indexes m.arrays by VMA.StatsTag without a
	// bounds check on the fast path.
	for _, v := range m.Space.VMAs() {
		if v.StatsTag >= len(m.arrays) {
			d.Failf("machine: VMA %q stats tag %d beyond %d registered arrays",
				v.Name, v.StatsTag, len(m.arrays))
			return
		}
	}
	if m.simPT != m.Space.SimPageTables {
		d.Failf("machine: page-table simulation flag disagrees with address space")
	}
}

func (s *shardState) state(w *ckpt.Walker) {
	tlb.Walk(w, &s.TLB)
	cache.Walk(w, &s.Cache)
	// The translation cache is not walked. It is functional-only and
	// vm.Translate has no side effects, so an empty cache yields the
	// same simulation; and its entries name the original space's VMAs.
	// A fork drops the tables its shallow copy shares with the source,
	// and a decode starts from none.
	_, _, _, _, _ = s.tr, s.trBase, s.trSpan, s.trTab, s.trLive
	if w.Cloning() {
		s.tr, s.trBase, s.trSpan, s.trTab, s.trLive = vm.Translation{}, 0, 0, nil, false
	}
	s.phase.state(w)
	ckpt.Fixed(w, &s.tlbAtPhase)
	ckpt.Fixed(w, &s.cchAtPhase)
	ckpt.Each(w, &s.done, 1<<20, (*PhaseStats).state)
	ckpt.Each(w, &s.arrays, 1<<20, (*ArrayStats).state)
}

func (p *PhaseStats) state(w *ckpt.Walker) {
	w.String(&p.Name)
	w.U64(&p.Cycles)
	w.U64(&p.Accesses)
	w.U64(&p.DataCycles)
	w.U64(&p.TranslationCycles)
	w.U64(&p.FaultCycles)
	ckpt.Fixed(w, &p.TLB)
	ckpt.Fixed(w, &p.Cache)
}

func (a *ArrayStats) state(w *ckpt.Walker) {
	w.String(&a.Name)
	w.U64(&a.Accesses)
	w.U64(&a.L1Misses)
	w.U64(&a.Walks)
}
