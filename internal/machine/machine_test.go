package machine

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"graphmem/internal/cache"
	"graphmem/internal/check"
	"graphmem/internal/ckpt"
	"graphmem/internal/cost"
	"graphmem/internal/memsys"
	"graphmem/internal/oskernel"
	"graphmem/internal/tlb"
	"graphmem/internal/vm"
)

func newTestMachine(t *testing.T, kcfg oskernel.Config) *Machine {
	t.Helper()
	return New(Config{
		MemoryBytes: 64 << 20,
		TLB:         tlb.Haswell(),
		Cache:       cache.Haswell(),
		Cost:        cost.Fast(),
		Kernel:      kcfg,
	})
}

func TestAccessFaultsMapsCharges(t *testing.T) {
	m := newTestMachine(t, oskernel.BaselineConfig())
	v := m.Space.Mmap("a", memsys.HugeSize)
	m.BeginPhase("p")
	m.Access(v.Base + 5)
	if m.Cycles() == 0 {
		t.Fatal("no cycles charged")
	}
	ph := m.FinishPhases()
	var p PhaseStats
	for _, q := range ph {
		if q.Name == "p" {
			p = q
		}
	}
	if p.Accesses != 1 {
		t.Fatalf("phase accesses = %d", p.Accesses)
	}
	if p.FaultCycles == 0 {
		t.Fatal("fault cost not attributed")
	}
	if p.Cycles < p.FaultCycles+p.DataCycles {
		t.Fatal("phase cycle accounting inconsistent")
	}
}

func TestRepeatAccessCheap(t *testing.T) {
	m := newTestMachine(t, oskernel.BaselineConfig())
	v := m.Space.Mmap("a", memsys.HugeSize)
	m.Access(v.Base)
	before := m.Cycles()
	m.Access(v.Base)
	delta := m.Cycles() - before
	fast := cost.Fast()
	if delta != fast.L1DHit+fast.Compute {
		t.Fatalf("hot access cost %d, want %d", delta, fast.L1DHit+fast.Compute)
	}
}

// TestFreeHitModelRefused: a cost model that charges nothing for an L1
// hit, which the bulk and gather engines divide by at an event
// deadline, is refused wherever a machine comes to be: New panics with
// a check.Failure, and a saved machine whose model was zeroed after New
// fails to decode with an error.
func TestFreeHitModelRefused(t *testing.T) {
	free := cost.Fast()
	free.L1DHit, free.Compute = 0, 0
	v := func() (v any) {
		defer func() { v = recover() }()
		New(Config{MemoryBytes: 64 << 20, TLB: tlb.Haswell(), Cache: cache.Haswell(), Cost: free, Kernel: oskernel.BaselineConfig()})
		return nil
	}()
	if f, ok := v.(check.Failure); !ok || !strings.Contains(f.Error(), "L1 hit") {
		t.Fatalf("New with a free L1 hit panicked with %T %v, want a check.Failure naming the L1 hit", v, v)
	}

	m := newTestMachine(t, oskernel.BaselineConfig())
	m.Model = free
	var buf bytes.Buffer
	if _, err := ckpt.Save(&buf, "free", func(e *ckpt.Encoder) { Walk(e.Walker(), &m, nil) }); err != nil {
		t.Fatal(err)
	}
	d, err := ckpt.Load(bytes.NewReader(buf.Bytes()), "free")
	if err != nil {
		t.Fatal(err)
	}
	var l *Machine
	Walk(d.Walker(), &l, nil)
	if err := d.Finish(); err == nil || !strings.Contains(err.Error(), "L1 hit") {
		t.Fatalf("decoding a machine with a free L1 hit: error %v, want one naming the L1 hit", err)
	}
}

func TestAccessUnmappedPanics(t *testing.T) {
	m := newTestMachine(t, oskernel.BaselineConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("wild access did not panic")
		}
	}()
	m.Access(0x1)
}

func TestPhaseIsolation(t *testing.T) {
	m := newTestMachine(t, oskernel.BaselineConfig())
	v := m.Space.Mmap("a", memsys.HugeSize)
	m.BeginPhase("init")
	m.Touch(v.Base, v.Bytes)
	m.BeginPhase("kernel")
	m.Access(v.Base)
	m.FinishPhases()
	ini, ok := m.Phase("init")
	if !ok {
		t.Fatal("init phase missing")
	}
	ker, ok := m.Phase("kernel")
	if !ok {
		t.Fatal("kernel phase missing")
	}
	if ker.FaultCycles != 0 {
		t.Fatal("kernel phase saw faults after full init touch")
	}
	if ini.FaultCycles == 0 {
		t.Fatal("init phase saw no faults")
	}
	wantAccesses := uint64(memsys.HugeSize / 64)
	if ini.Accesses != wantAccesses {
		t.Fatalf("init accesses = %d, want %d", ini.Accesses, wantAccesses)
	}
	if ini.TLB.Lookups != wantAccesses {
		t.Fatalf("init TLB lookups = %d", ini.TLB.Lookups)
	}
}

func TestArrayAttribution(t *testing.T) {
	m := newTestMachine(t, oskernel.BaselineConfig())
	a := m.Space.Mmap("a", memsys.HugeSize)
	b := m.Space.Mmap("b", memsys.HugeSize)
	m.RegisterArray(a)
	m.RegisterArray(b)
	m.Access(a.Base)
	m.Access(a.Base + 4096)
	m.Access(b.Base)
	st := m.ArrayStats()
	if st[0].Name != "a" || st[0].Accesses != 2 {
		t.Fatalf("array a stats = %+v", st[0])
	}
	if st[1].Name != "b" || st[1].Accesses != 1 {
		t.Fatalf("array b stats = %+v", st[1])
	}
}

func TestTranslationChargesWalk(t *testing.T) {
	m := newTestMachine(t, oskernel.BaselineConfig())
	// 16MB of pages against a ~4MB-reach STLB (and well within the
	// machine's 64MB of memory, so no reclaim interferes).
	v := m.Space.Mmap("a", 8*memsys.HugeSize)
	m.BeginPhase("warm")
	// Touch enough distinct pages to overwhelm both TLB levels, then
	// re-touch: translation cycles must accrue.
	for p := 0; p < v.Pages; p++ {
		m.Access(v.PageVA(p))
	}
	m.BeginPhase("measure")
	for p := 0; p < v.Pages; p++ {
		m.Access(v.PageVA(p))
	}
	m.FinishPhases()
	meas, _ := m.Phase("measure")
	if meas.TLB.STLBMisses == 0 {
		t.Fatal("no walks on a 16MB stream against a 4MB-reach STLB")
	}
	if meas.TranslationCycles == 0 {
		t.Fatal("walks charged no translation cycles")
	}
	if meas.FaultCycles != 0 {
		t.Fatal("re-touch faulted")
	}
}

func TestHugeMappingReducesWalks(t *testing.T) {
	run := func(kcfg oskernel.Config) uint64 {
		m := newTestMachine(t, kcfg)
		v := m.Space.Mmap("a", 16*memsys.HugeSize)
		m.Touch(v.Base, v.Bytes) // fault in
		m.BeginPhase("measure")
		// Strided accesses across pages.
		for rep := 0; rep < 4; rep++ {
			for p := 0; p < v.Pages; p++ {
				m.Access(v.PageVA(p))
			}
		}
		m.FinishPhases()
		ph, _ := m.Phase("measure")
		return ph.TLB.L1Misses
	}
	missBase := run(oskernel.BaselineConfig())
	missHuge := run(oskernel.DefaultConfig())
	if missHuge*4 > missBase {
		t.Fatalf("huge pages did not reduce L1 TLB misses: %d vs %d", missHuge, missBase)
	}
}

func TestTranslationShare(t *testing.T) {
	p := PhaseStats{Cycles: 200, TranslationCycles: 50}
	if p.TranslationShare() != 0.25 {
		t.Fatalf("share = %v", p.TranslationShare())
	}
	var zero PhaseStats
	if zero.TranslationShare() != 0 {
		t.Fatal("zero-phase share not zero")
	}
}

func TestRegionHeatAccumulates(t *testing.T) {
	m := newTestMachine(t, oskernel.BaselineConfig())
	v := m.Space.Mmap("a", 3*memsys.HugeSize)
	for i := 0; i < 5; i++ {
		m.Access(v.Base + memsys.HugeSize + uint64(i)*64) // region 1
	}
	m.Access(v.Base) // region 0
	if v.HeatAt(1) != 5 || v.HeatAt(0) != 1 || v.HeatAt(2) != 0 {
		t.Fatalf("heat = %v", v.HeatCopy()[:3])
	}
}

func TestSimulatedPageTablesChangeWalkCosts(t *testing.T) {
	run := func(simPT bool) (uint64, uint64) {
		m := New(Config{
			MemoryBytes:        64 << 20,
			TLB:                tlb.Scaled(tlb.Haswell(), 16),
			Cache:              cache.Haswell(),
			Cost:               cost.Fast(),
			Kernel:             oskernel.BaselineConfig(),
			SimulatePageTables: simPT,
		})
		v := m.Space.Mmap("a", 8*memsys.HugeSize)
		m.Touch(v.Base, v.Bytes)
		m.BeginPhase("measure")
		for rep := 0; rep < 2; rep++ {
			for p := 0; p < v.Pages; p++ {
				m.Access(v.PageVA(p))
			}
		}
		m.FinishPhases()
		ph, _ := m.Phase("measure")
		return ph.TranslationCycles, ph.TLB.STLBMisses
	}
	constCost, constWalks := run(false)
	simCost, simWalks := run(true)
	if constWalks == 0 || simWalks == 0 {
		t.Fatal("no walks happened; test graph too small")
	}
	if simCost == constCost {
		t.Fatal("simulated page tables did not change walk costs")
	}
	// With the fast model, PT pages of a sequential scan stay cache-hot
	// (512 consecutive PTEs per line-filled PT page), so simulated
	// walks must be cheaper per walk than the fixed cold-walk constant.
	if float64(simCost)/float64(simWalks) >= float64(constCost)/float64(constWalks) {
		t.Fatalf("hot-PT walks (%d/%d) not cheaper than constant model (%d/%d)",
			simCost, simWalks, constCost, constWalks)
	}
}

// --- staged-engine regression tests -----------------------------------

// TestFaultPathCyclesPinned pins the staged engine's fault-path charges:
// with ample free memory the critical-path fault cost is exactly the
// model's minor-fault constant — 4K under THP=never, 2M on an always-on
// first touch — unchanged from the engine that re-translated after every
// fault.
func TestFaultPathCyclesPinned(t *testing.T) {
	fast := cost.Fast()

	m := newTestMachine(t, oskernel.BaselineConfig())
	v := m.Space.Mmap("a", memsys.HugeSize)
	m.BeginPhase("p")
	m.Access(v.Base)
	m.FinishPhases()
	p, ok := m.Phase("p")
	if !ok {
		t.Fatal("phase missing")
	}
	if p.FaultCycles != fast.MinorFault4K {
		t.Fatalf("4K fault charged %d cycles, want MinorFault4K = %d", p.FaultCycles, fast.MinorFault4K)
	}
	if s := m.Kernel.Stats(); s.Faults4K != 1 || s.FaultsHuge != 0 {
		t.Fatalf("kernel stats = %+v", s)
	}

	m = newTestMachine(t, oskernel.DefaultConfig())
	v = m.Space.Mmap("a", memsys.HugeSize)
	m.BeginPhase("p")
	m.Access(v.Base)
	m.FinishPhases()
	p, _ = m.Phase("p")
	if p.FaultCycles != fast.MinorFault2M {
		t.Fatalf("huge fault charged %d cycles, want MinorFault2M = %d", p.FaultCycles, fast.MinorFault2M)
	}
	if s := m.Kernel.Stats(); s.FaultsHuge != 1 {
		t.Fatalf("kernel stats = %+v", s)
	}
}

// TestAccessFastPathZeroAllocs proves the steady-state Access fast path
// performs zero heap allocations (the contract SL007 guards statically).
func TestAccessFastPathZeroAllocs(t *testing.T) {
	m := newTestMachine(t, oskernel.BaselineConfig())
	v := m.Space.Mmap("a", memsys.HugeSize)
	m.RegisterArray(v)
	m.Touch(v.Base, memsys.HugeSize) // fault everything in first
	const span = 16 << 10
	var off uint64
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 512; i++ {
			m.Access(v.Base + off)
			off = (off + 64) % span
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state fast path allocates: %v allocs per 512 accesses", avg)
	}
}

// TestTickerCadenceMatchesPerAccessScan replays the pre-event-layer
// dispatch rule — scan every ticker after every access, fire when
// now-last >= interval — and asserts the event layer fires at exactly
// the same cycle counts.
func TestTickerCadenceMatchesPerAccessScan(t *testing.T) {
	m := newTestMachine(t, oskernel.BaselineConfig())
	v := m.Space.Mmap("a", 4*memsys.HugeSize)

	const interval = 1000
	var fires []uint64
	m.AddTicker(interval, func(now uint64) { fires = append(fires, now) })

	var want []uint64
	var last uint64
	x := uint64(1)
	for i := 0; i < 3000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		m.Access(v.Base + x%(4*memsys.HugeSize))
		if c := m.Cycles(); c-last >= interval {
			want = append(want, c)
			last = c
		}
	}
	if len(fires) == 0 {
		t.Fatal("ticker never fired")
	}
	if len(fires) != len(want) {
		t.Fatalf("ticker fired %d times, per-access scan would fire %d", len(fires), len(want))
	}
	for i := range fires {
		if fires[i] != want[i] {
			t.Fatalf("fire %d at cycle %d, per-access scan fires at %d", i, fires[i], want[i])
		}
	}

	// A ticker registered mid-run must be armed immediately: its first
	// due deadline is already in the past, so the next access fires it.
	var late []uint64
	m.AddTicker(interval, func(now uint64) { late = append(late, now) })
	m.Access(v.Base)
	if len(late) != 1 || late[0] != m.Cycles() {
		t.Fatalf("mid-run ticker fires = %v, want one fire at %d", late, m.Cycles())
	}
}

// TestTranslationCacheInvalidatedOnUnmap guards the machine-level
// translation cache: unmapping the VMA must drop the cached entry, so a
// further access panics as an unmapped-address bug instead of silently
// reusing the stale frame.
func TestTranslationCacheInvalidatedOnUnmap(t *testing.T) {
	m := newTestMachine(t, oskernel.BaselineConfig())
	v := m.Space.Mmap("a", memsys.HugeSize)
	m.Access(v.Base) // seeds the translation cache
	m.Space.Munmap(v)
	defer func() {
		if recover() == nil {
			t.Fatal("access after munmap did not panic: stale cached translation")
		}
	}()
	m.Access(v.Base)
}

// liveTranslations counts the translation cache's live entries: the
// primary entry and every full slot of both tables.
func liveTranslations(m *Machine) (primary bool, slots4K, slots2M int) {
	if t := m.trTab; t != nil {
		for _, e := range t.t4K {
			if e.key != 0 {
				slots4K++
			}
		}
		for _, e := range t.t2M {
			if e.key != 0 {
				slots2M++
			}
		}
	}
	return m.trSpan != 0, slots4K, slots2M
}

// fillTranslations maps a THP machine's worth of distinct 2 MB and
// 4 KB pages and touches each once, so both translation-cache tables
// hold many live slots; it returns the two VMAs.
func fillTranslations(t *testing.T, m *Machine) (huge, base *vm.VMA) {
	t.Helper()
	huge = m.Space.Mmap("huge", 16*memsys.HugeSize)
	base = m.Space.Mmap("base", memsys.HugeSize-memsys.PageSize) // no full region: 4 KB pages only
	for off := uint64(0); off < huge.Bytes; off += memsys.HugeSize {
		m.Access(huge.Base + off)
	}
	for p := 0; p < base.Pages; p++ {
		m.Access(base.PageVA(p))
	}
	if _, n4, n2 := liveTranslations(m); n4 != base.Pages || n2 != 16 {
		t.Fatalf("seeded %d 4 KB and %d 2 MB slots, want %d and 16", n4, n2, base.Pages)
	}
	return huge, base
}

// TestWideTranslationCacheInvalidatedOnShootdown extends the unmap
// regression to the page-indexed tables: after seeding hundreds of
// distinct 4 KB and 2 MB slots, a single mapping change must empty the
// primary entry and every slot — a survivor would be a silent
// stale-frame bug the gather engine could hit on its next segment.
func TestWideTranslationCacheInvalidatedOnShootdown(t *testing.T) {
	m := newTestMachine(t, oskernel.DefaultConfig())
	huge, base := fillTranslations(t, m)
	one := m.Space.Mmap("one", memsys.PageSize)
	m.Access(one.Base)

	fired := 0
	orig := m.Space.Shootdown
	m.Space.Shootdown = func(va uint64, size vm.PageSizeClass) { orig(va, size); fired++ }
	m.Space.Munmap(one)
	if fired != 1 {
		t.Fatalf("munmap of a one-page VMA fired %d shootdowns, want 1", fired)
	}
	if p, n4, n2 := liveTranslations(m); p || n4 != 0 || n2 != 0 {
		t.Fatalf("after one shootdown: primary live %v, %d 4 KB and %d 2 MB slots live; want none", p, n4, n2)
	}
	// The still-mapped pages translate afresh, and refill their slots.
	m.Access(huge.Base)
	m.Access(base.Base)
	if _, n4, n2 := liveTranslations(m); n4 != 1 || n2 != 1 {
		t.Fatalf("refills left %d 4 KB and %d 2 MB slots live, want 1 and 1", n4, n2)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("access after munmap did not panic: stale cached translation")
		}
	}()
	m.Access(one.Base)
}

// TestWideTranslationCacheShootdownMidGather drives a shootdown through
// a page fault in the middle of an AccessGather batch: the batch's
// footprint exceeds physical memory, so faults past capacity trigger
// reclaim, whose swap-outs fire Space.Shootdown while the gather is
// mid-flight with live translation-cache slots. A wrapper around the
// shootdown hook asserts the primary entry and every slot of both
// tables are empty at the exact moment each shootdown fires.
func TestWideTranslationCacheShootdownMidGather(t *testing.T) {
	m := New(Config{
		MemoryBytes: 4 << 20,
		TLB:         tlb.Haswell(),
		Cache:       cache.Haswell(),
		Cost:        cost.Fast(),
		Kernel:      oskernel.BaselineConfig(),
	})
	v := m.Space.Mmap("a", 8<<20)
	m.RegisterArray(v)

	fired, maxLive := 0, 0
	orig := m.Space.Shootdown
	m.Space.Shootdown = func(va uint64, size vm.PageSizeClass) {
		_, n4, _ := liveTranslations(m)
		maxLive = max(maxLive, n4)
		orig(va, size)
		fired++
		if p, n4, n2 := liveTranslations(m); p || n4 != 0 || n2 != 0 {
			t.Errorf("shootdown %d left primary live %v, %d 4 KB and %d 2 MB slots live", fired, p, n4, n2)
		}
	}

	// One batch of short same-line runs over twice the machine's memory.
	vas := make([]uint64, 0, 3*2048)
	for p := uint64(0); p < 2048; p++ {
		va := v.Base + p*memsys.PageSize
		vas = append(vas, va, va+8, va+16)
	}
	m.AccessGather(vas)

	if fired == 0 {
		t.Fatal("no shootdown fired mid-gather: reclaim never ran")
	}
	if maxLive < 2 {
		t.Fatalf("at most %d 4 KB slots were live when a shootdown fired; the test must empty many", maxLive)
	}
	if m.Kernel.Stats().SwapOuts == 0 {
		t.Fatal("expected reclaim swap-outs under memory oversubscription")
	}
}

// TestForkAndLoadStartTranslationCacheEmpty proves the translation
// cache is outside the state walk without changing the simulation: a
// fork and a saved-then-loaded copy of a machine with a full cache both
// start with it empty, then match the original's cycles and counters
// on the same access stream.
func TestForkAndLoadStartTranslationCacheEmpty(t *testing.T) {
	m := newTestMachine(t, oskernel.DefaultConfig())
	huge, base := fillTranslations(t, m)
	m.RegisterArray(huge)
	m.RegisterArray(base)

	f := m
	Walk(ckpt.Cloner(), &f, nil)
	var buf bytes.Buffer
	if _, err := ckpt.Save(&buf, "tc", func(e *ckpt.Encoder) { Walk(e.Walker(), &m, nil) }); err != nil {
		t.Fatal(err)
	}
	d, err := ckpt.Load(bytes.NewReader(buf.Bytes()), "tc")
	if err != nil {
		t.Fatal(err)
	}
	var l *Machine
	Walk(d.Walker(), &l, nil)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if p, n4, n2 := liveTranslations(m); !p || n4 == 0 || n2 == 0 {
		t.Fatal("the original's translation cache must stay full for the comparison to mean anything")
	}

	stream := func(m *Machine) {
		x := uint64(7)
		vas := make([]uint64, 256)
		for rep := 0; rep < 64; rep++ {
			for i := range vas {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				if x&1 == 0 {
					vas[i] = huge.Base + x%huge.Bytes
				} else {
					vas[i] = base.Base + x%base.Bytes
				}
			}
			m.AccessGather(vas)
			m.Access(vas[0])
			m.AccessRun(base.Base+x%base.Bytes/2, 64, 64)
		}
	}
	stream(m)
	for _, c := range []struct {
		name string
		m    *Machine
	}{{"fork", f}, {"saved-then-loaded", l}} {
		if p, n4, n2 := liveTranslations(c.m); p || n4 != 0 || n2 != 0 {
			t.Fatalf("%s starts with primary live %v, %d 4 KB and %d 2 MB slots live; want an empty cache", c.name, p, n4, n2)
		}
		stream(c.m)
		if c.m.Cycles() != m.Cycles() || c.m.TLB.Stats() != m.TLB.Stats() || c.m.Cache.Stats() != m.Cache.Stats() ||
			!reflect.DeepEqual(c.m.ArrayStats(), m.ArrayStats()) || c.m.Kernel.Stats() != m.Kernel.Stats() {
			t.Fatalf("%s diverged from the original on the same stream: cycles %d vs %d, TLB %+v vs %+v, cache %+v vs %+v",
				c.name, c.m.Cycles(), m.Cycles(), c.m.TLB.Stats(), m.TLB.Stats(), c.m.Cache.Stats(), m.Cache.Stats())
		}
	}
}

// TestForkSharesNoTranslationTables pins that a fork copies no
// translation-cache table: a fork of a machine with live slots holds no
// tables until its first refill allocates its own, and the source's
// tables stay its own and full.
func TestForkSharesNoTranslationTables(t *testing.T) {
	m := newTestMachine(t, oskernel.DefaultConfig())
	huge, _ := fillTranslations(t, m)
	src := m.trTab
	f := m
	Walk(ckpt.Cloner(), &f, nil)
	if f.trTab != nil {
		t.Fatal("the fork holds translation tables before its first refill")
	}
	if _, n4, n2 := liveTranslations(m); m.trTab != src || n4 == 0 || n2 == 0 {
		t.Fatalf("forking left the source %d 4 KB and %d 2 MB live slots in tables %p, want its full tables %p",
			n4, n2, m.trTab, src)
	}
	f.Access(huge.Base)
	if f.trTab == nil || f.trTab == src {
		t.Fatalf("the fork's first refill left it tables %p (source's %p), want tables of its own", f.trTab, src)
	}
}
