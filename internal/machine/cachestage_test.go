package machine

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"graphmem/internal/cache"
	"graphmem/internal/check"
	"graphmem/internal/cost"
	"graphmem/internal/oskernel"
	"graphmem/internal/tlb"
	"graphmem/internal/vm"
)

// The cache stage's contract: a machine whose probes run on a cache
// goroutine must end in exactly the state of a twin that probes inline
// and dispatches every access through the scalar path. The scripts are
// the gather engine's (gatherOp), strided runs interleaved; event
// deadlines come every few hundred cycles so that they land inside
// gather same-line runs and bulk line batches, where the clock bound
// cuts a batch that the exact clock may not.

// stageSnapshot is everything the equivalence claim covers.
type stageSnapshot struct {
	diffSnapshot
	OS oskernel.Stats
}

// stageConfig is a machine configuration and its no-op ticker's
// interval (0: none).
type stageConfig struct {
	name    string
	cfg     Config
	ticker  uint64
	promote bool // khugepaged promotes mid-run
}

// stageConfigFor builds a machine configuration with khugepaged every
// interval cycles. faultHuge lets faults map 2 MB pages directly; without
// it khugepaged promotes them mid-run, shooting translations down.
func stageConfigFor(interval uint64, faultHuge, heat, small bool, model cost.Model) Config {
	k := oskernel.DefaultConfig()
	k.KhugepagedEnabled = true
	k.KhugepagedInterval = interval
	k.Mode = oskernel.ModeAlways
	k.FaultTimeHuge = faultHuge
	k.PromoteByHeat = heat
	cfg := Config{MemoryBytes: 64 << 20, TLB: tlb.Haswell(), Cache: cache.Haswell(), Cost: model, Kernel: k}
	if small {
		cfg.TLB, cfg.Cache = tlb.Scaled(tlb.Haswell(), 16), cache.Scaled(cache.Haswell(), 8)
	}
	return cfg
}

func stageConfigs() []stageConfig {
	never := oskernel.DefaultConfig()
	never.Mode = oskernel.ModeNever
	never.KhugepagedEnabled = true
	never.KhugepagedInterval = 4000 // stale deadline: events due every access
	return []stageConfig{
		{name: "no-events", cfg: Config{MemoryBytes: 64 << 20, TLB: tlb.Haswell(), Cache: cache.Haswell(), Cost: cost.Default(), Kernel: oskernel.DefaultConfig()}},
		{name: "khugepaged-300", cfg: stageConfigFor(300, false, false, true, cost.Fast()), ticker: 170, promote: true},
		{name: "khugepaged-5000", cfg: stageConfigFor(5000, false, false, true, cost.Default()), promote: true},
		{name: "heat-1000", cfg: stageConfigFor(1000, false, true, true, cost.Fast()), promote: true},
		{name: "fault-huge", cfg: stageConfigFor(2000, true, false, false, cost.Default()), ticker: 900},
		{name: "stale-deadline", cfg: Config{MemoryBytes: 64 << 20, TLB: tlb.Haswell(), Cache: cache.Haswell(), Cost: cost.Fast(), Kernel: never}},
	}
}

// replayStage runs ops on a fresh machine of sc and snapshots it. With
// staged set, every phase runs with a cache stage open (stopped and
// restarted around each phase change), and runs and gathers go through
// the bulk and gather engines where bulk and gather are set, as scalar
// loops where not; otherwise the machine is the twin: no stage, every
// access scalar.
func replayStage(t testing.TB, sc stageConfig, ops []gatherOp, staged, bulk, gather bool) (stageSnapshot, CacheStageStats) {
	m := New(sc.cfg)
	bulk, gather = bulk && staged, gather && staged
	if sc.ticker != 0 {
		m.AddTicker(sc.ticker, func(uint64) {})
	}
	a := m.Space.Mmap("a", 6<<20)
	b := m.Space.Mmap("b", 3<<20)
	a.Madvise(0, 2<<20, vm.AdviceHuge)
	b.Madvise(2<<20, 1<<20, vm.AdviceNoHuge)
	m.RegisterArray(a)
	m.RegisterArray(b)
	vmas := [2]*vm.VMA{a, b}
	stop := func() {
		if err := m.StopCacheStage(); err != nil {
			t.Fatal(err)
		}
	}

	buf := make([]uint64, 0, 2048)
	m.BeginPhase("run")
	if staged {
		m.StartCacheStage()
	}
	for _, op := range ops {
		if op.phase {
			stop()
			m.BeginPhase("next")
			if staged {
				m.StartCacheStage()
			}
		}
		if op.run {
			v := vmas[op.vma%len(vmas)]
			va := v.Base + op.off%v.Bytes
			count := op.count
			if op.stride > 0 {
				if fit := (v.End()-va-1)/op.stride + 1; uint64(count) > fit {
					count = int(fit)
				}
			}
			accessRun(m, bulk, va, count, op.stride)
			continue
		}
		buf = buf[:0]
		for _, r := range op.refs {
			v := vmas[int(r.vma)%len(vmas)]
			buf = append(buf, v.Base+r.off%v.Bytes)
		}
		accessGather(m, gather, buf)
	}
	stop()

	snap := stageSnapshot{diffSnapshot: diffSnapshot{
		Cycles: m.Cycles(),
		Phases: m.FinishPhases(),
		Arrays: m.ArrayStats(),
		TLB:    m.TLB.Stats(),
		Cache:  m.Cache.Stats(),
	}, OS: m.Kernel.Stats()}
	for _, v := range vmas {
		snap.Heat = append(snap.Heat, v.HeatCopy())
	}
	return snap, m.CacheStageStats()
}

// TestCacheStageMatchesScalar is the stage's differential property
// test: under every configuration, with the bulk and gather engines
// each on and off, a machine whose caches run on the cache goroutine
// must equal the scalar twin in every counter; and where khugepaged
// promotes, the stage must have drained at a deadline, not only when
// it stopped. At GOMAXPROCS 1 no cache goroutine may start.
func TestCacheStageMatchesScalar(t *testing.T) {
	staged := runtime.GOMAXPROCS(0) > 1
	for _, sc := range stageConfigs() {
		rng := rand.New(rand.NewSource(0xCAC4E + int64(len(sc.name))))
		ops := randomGatherOps(rng, 120)
		want, _ := replayStage(t, sc, ops, false, false, false)
		for _, mode := range []struct{ bulk, gather bool }{{true, true}, {false, true}, {true, false}, {false, false}} {
			t.Run(fmt.Sprintf("%s/bulk=%t/gather=%t", sc.name, mode.bulk, mode.gather), func(t *testing.T) {
				got, st := replayStage(t, sc, ops, true, mode.bulk, mode.gather)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("staged and scalar runs diverged\nstaged: %+v\nscalar: %+v", got, want)
				}
				if (st.Starts > 0) != staged {
					t.Fatalf("%d cache goroutines started at GOMAXPROCS %d", st.Starts, runtime.GOMAXPROCS(0))
				}
				if staged && sc.promote && st.Drains <= st.Starts {
					t.Fatalf("%d drains over %d starts: the stage never drained at a deadline", st.Drains, st.Starts)
				}
			})
		}
	}
}

// FuzzCacheStageMatchesScalar feeds arbitrary configurations and
// scripts through the stage's differential harness. data[0] picks the
// engines, the page sizes, heat promotion, the cost model and the
// geometry; data[1] the khugepaged interval (64–5164 cycles); data[2]
// a ticker (none, or 50–3365 cycles); the rest is decoded into runs
// and gathers as FuzzAccessGather does.
func FuzzCacheStageMatchesScalar(f *testing.F) {
	f.Add([]byte{0x03, 10, 7, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{0x3F, 0, 1, 0xFF, 0x41, 0x00, 0x12, 0x80, 0x02, 0x3F, 0x44, 0xFE, 0x00, 0x01, 0x07})
	f.Add([]byte{0x20, 255, 0, 5, 0, 15, 5, 1, 15, 0, 9, 200, 3, 0, 0, 5, 1, 15})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		bits := data[0]
		model := cost.Fast()
		if bits&0x10 != 0 {
			model = cost.Default()
		}
		sc := stageConfig{
			cfg: stageConfigFor(64+uint64(data[1])*20, bits&0x04 != 0, bits&0x08 != 0, bits&0x20 != 0, model),
		}
		if data[2] != 0 {
			sc.ticker = 37 + uint64(data[2])*13
		}
		var ops []gatherOp
		var refs []gatherRef
		var cur gatherRef
		flush := func() {
			if len(refs) > 0 {
				ops = append(ops, gatherOp{refs: refs, phase: len(ops)%13 == 7})
				refs = nil
			}
		}
		for i := 3; i+3 <= len(data) && len(ops) < 48; i += 3 {
			switch data[i] % 8 {
			case 0: // interleaved strided run
				flush()
				ops = append(ops, gatherOp{
					run:    true,
					vma:    int(data[i+1]) & 1,
					off:    uint64(data[i+1])<<12 | uint64(data[i+2]),
					count:  int(data[i+2]) << 3,
					stride: diffStrides[int(data[i+1])%len(diffStrides)],
				})
			case 1: // random jump
				cur = gatherRef{vma: data[i+1] & 1, off: uint64(data[i+1])<<16 | uint64(data[i+2])<<8}
				refs = append(refs, cur)
			case 2: // page skip
				cur.off += 4096
				refs = append(refs, cur)
			case 3: // line skip
				cur.off += 64
				refs = append(refs, cur)
			case 4: // exact repeat
				refs = append(refs, cur)
			default: // same-line walk of data[i+2]%16+1 entries
				for j := 0; j <= int(data[i+2]%16); j++ {
					cur.off += 8
					refs = append(refs, cur)
				}
			}
		}
		flush()
		want, _ := replayStage(t, sc, ops, false, false, false)
		got, _ := replayStage(t, sc, ops, true, bits&0x01 != 0, bits&0x02 != 0)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("staged and scalar runs diverged\nstaged: %+v\nscalar: %+v", got, want)
		}
	})
}

// TestCacheStageFailure: a panic on the cache goroutine — here a
// hierarchy with no levels — must reach the replay goroutine as a
// check.Failure whose first line is the panic's own message and whose
// text carries the cache goroutine's stack; stopping the stage then
// returns the same failure, and no goroutine is left behind.
func TestCacheStageFailure(t *testing.T) {
	for _, procs := range []int{2, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			before := runtime.NumGoroutine()
			m := New(Config{MemoryBytes: 64 << 20, TLB: tlb.Haswell(), Cache: cache.Haswell(), Cost: cost.Default(), Kernel: oskernel.DefaultConfig()})
			v := m.Space.Mmap("a", 8<<20)
			m.Touch(v.Base, v.Bytes)
			m.Cache = new(cache.Hierarchy) // its first probe dereferences a nil level
			m.StartCacheStage()
			if m.handoff == nil {
				t.Fatal("the stage probes inline: the cache goroutine would never see a probe")
			}
			v0 := func() (r any) {
				defer func() { r = recover() }()
				for range 4 {
					m.AccessRun(v.Base, int(v.Bytes>>cache.LineShift), 1<<cache.LineShift)
				}
				return nil
			}()
			err := m.StopCacheStage()
			for _, got := range []any{v0, err} {
				fail, ok := got.(check.Failure)
				if !ok {
					t.Fatalf("got %T %v, want a check.Failure", got, got)
				}
				msg := fail.Error()
				if line, _, _ := strings.Cut(msg, "\n"); !strings.HasPrefix(line, "runtime error: invalid memory address") {
					t.Fatalf("first line %q, want the nil dereference's message", line)
				}
				if !strings.Contains(msg, "cache goroutine:") || !strings.Contains(msg, "machine.(*cacheStage).Consume") {
					t.Fatalf("failure does not carry the cache goroutine's stack:\n%s", msg)
				}
			}
			if n := settled(before); n > before {
				t.Fatalf("%d goroutines after the failed stage, %d before", n, before)
			}
		})
	}
}

// settled waits briefly for goroutines that have signalled their exit to
// finish it, and returns the count.
func settled(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200 && n > want; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}
