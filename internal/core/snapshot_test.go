package core_test

import (
	"reflect"
	"runtime"
	"testing"

	"graphmem/internal/analytics"
	"graphmem/internal/core"
	"graphmem/internal/machine"
	"graphmem/internal/oskernel"
	"graphmem/internal/vm"
)

// snapshotConfigs are the five standard machine configurations the
// fork-fidelity property test sweeps: the paper's baseline, plain THP,
// a per-structure advise, the selective knob, and the rollout
// experiment's deferred starting state. Together they exercise every
// state the fork layer must carry — unadvised and advised VMAs, huge
// mappings from fault time and from khugepaged, and both defrag
// settings.
func snapshotConfigs() []core.Policy {
	return []core.Policy{
		core.Base4K(),
		core.THPAlways(),
		core.PerStructure("prop"),
		core.SelectiveTHP(0.5),
		core.DeferredTHP(),
	}
}

// stressedEnv is the snapshot tests' environment: pressure, aging,
// fragmentation, and a resident page cache, so forks must carry memhog
// and page-cache owner state, not just the application image.
func stressedEnv() core.Environment {
	env := core.Pressured(12 << 20)
	env.FragLevel = 0.3
	env.PageCacheBytes = 2 << 20
	env.Seed = 42
	return env
}

// TestForkMatchesReplay is the fork-fidelity property test: for each
// standard configuration, a kernel phase run on a checkpoint fork must
// produce a RunResult deeply equal to the monolithic Run — every cycle
// count, fault counter, array statistic, and kernel output bit. Two
// consecutive Runs from one checkpoint must both match: forking is
// read-only on the frozen state.
func TestForkMatchesReplay(t *testing.T) {
	env := stressedEnv()
	for _, pol := range snapshotConfigs() {
		t.Run(pol.Name, func(t *testing.T) {
			spec := quickSpec(t, analytics.BFS, pol, env)
			spec.SimulatePageTables = true
			ref, err := core.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			cp, err := core.Prepare(spec)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				got, err := cp.Run()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(ref, got) {
					t.Fatalf("fork run %d diverged from monolithic run:\n--- monolithic ---\n%s--- fork ---\n%s",
						i, formatResult(ref), formatResult(got))
				}
			}
		})
	}
}

// TestForkMatchesReplayDisabled re-runs one fidelity case with the
// GRAPHMEM_NO_SNAPSHOT escape hatch set: the checkpoint then replays
// the load phase per Run, and the results must still be deeply equal —
// the property the CI campaign byte-diff checks end to end.
func TestForkMatchesReplayDisabled(t *testing.T) {
	t.Setenv("GRAPHMEM_NO_SNAPSHOT", "1")
	if !core.SnapshotsDisabled() {
		t.Fatal("GRAPHMEM_NO_SNAPSHOT not observed")
	}
	spec := quickSpec(t, analytics.BFS, core.THPAlways(), stressedEnv())
	ref, err := core.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := core.Prepare(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, got) {
		t.Fatalf("disabled-snapshot replay diverged:\n--- monolithic ---\n%s--- replay ---\n%s",
			formatResult(ref), formatResult(got))
	}
}

// TestPrepareRejectsTickeredSpecs: specs that register machine tickers
// (churn co-runner, supply sampler) close over state a deep copy
// cannot capture, so Prepare must refuse them rather than fork a
// machine that silently lost its co-runner.
func TestPrepareRejectsTickeredSpecs(t *testing.T) {
	env := stressedEnv()
	env.ChurnBytes = 1 << 20
	if _, err := core.Prepare(quickSpec(t, analytics.BFS, core.THPAlways(), env)); err == nil {
		t.Fatal("Prepare accepted a churning spec")
	}
	spec := quickSpec(t, analytics.BFS, core.THPAlways(), stressedEnv())
	spec.SampleSupplyEvery = 100_000
	if _, err := core.Prepare(spec); err == nil {
		t.Fatal("Prepare accepted a supply-sampling spec")
	}
}

// splitmix64 is the test's deterministic op-sequence generator.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// stressOp applies one pseudo-random operation — a probe burst
// interleaved with whatever faults and khugepaged ticks it provokes,
// optionally preceded by a madvise or THP-mode flip — and returns the
// probe's statistics.
func stressOp(op uint64, fm *machine.Machine, img *analytics.Image) analytics.ProbeResult {
	switch op % 4 {
	case 1:
		img.Prop.Madvise(0, img.Prop.Bytes/(1+op%4), vm.AdviceHuge)
	case 2:
		img.Edge.Madvise(0, img.Edge.Bytes, vm.AdviceHuge)
	case 3:
		if op&16 != 0 {
			fm.Kernel.SetMode(oskernel.ModeAlways)
		} else {
			fm.Kernel.SetMode(oskernel.ModeMadvise)
		}
	}
	return img.RunProbe(int(1<<15 + op%(1<<15)))
}

// TestForkInterleavingStress interleaves forking with faulting and
// background kernel activity: two forks of one checkpoint are driven
// through an identical pseudo-random op sequence (probe bursts,
// madvise calls, mode flips) and must stay cycle-identical at every
// step; a third fork taken mid-sequence from a live, warmed machine
// must replay the remaining ops to the same end state, while the
// machine it was forked from keeps running unperturbed.
func TestForkInterleavingStress(t *testing.T) {
	spec := quickSpec(t, analytics.BFS, core.DeferredTHP(), stressedEnv())
	cp, err := core.Prepare(spec)
	if err != nil {
		t.Fatal(err)
	}
	fmA, imgA, err := cp.Fork()
	if err != nil {
		t.Fatal(err)
	}
	fmB, imgB, err := cp.Fork()
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 12
	const forkAt = rounds / 2
	var fmC *machine.Machine
	var imgC *analytics.Image
	var tail []uint64 // ops after the mid-sequence fork
	state := uint64(0xbadc0ffee)
	next0 := fmA.Kernel.NextTickAt()
	for i := 0; i < rounds; i++ {
		if i == forkAt {
			fmC, imgC = core.ForkPair(fmA, imgA)
		}
		op := splitmix64(&state)
		ra := stressOp(op, fmA, imgA)
		rb := stressOp(op, fmB, imgB)
		if ra != rb {
			t.Fatalf("round %d: identical op diverged across forks:\nA=%+v\nB=%+v", i, ra, rb)
		}
		if fmA.Cycles() != fmB.Cycles() {
			t.Fatalf("round %d: fork cycle counters diverged: %d vs %d", i, fmA.Cycles(), fmB.Cycles())
		}
		if i >= forkAt {
			tail = append(tail, op)
		}
	}

	// The mid-sequence fork froze A's state at round forkAt; driving A
	// onward must not have advanced C.
	if fmC.Cycles() >= fmA.Cycles() {
		t.Fatalf("mid-sequence fork advanced with its parent: C=%d A=%d", fmC.Cycles(), fmA.Cycles())
	}
	for i, op := range tail {
		rc := stressOp(op, fmC, imgC)
		if rc.Accesses == 0 {
			t.Fatalf("tail round %d issued no accesses", i)
		}
	}
	if fmC.Cycles() != fmA.Cycles() {
		t.Fatalf("mid-sequence fork replayed the tail to a different state: C=%d A=%d", fmC.Cycles(), fmA.Cycles())
	}

	// Coverage guard: the sequence must actually have interleaved
	// khugepaged scans (NextTickAt advances only when a tick fires),
	// or the "with background ticks" claim is vacuous.
	if fmA.Kernel.NextTickAt() == next0 {
		t.Fatal("no khugepaged tick fired during the stress; grow the probe budgets")
	}
}

// TestForkCostIsPageDirectories is the fork-cost guard: a fork of a
// staged 32 GB pressured node shares the node's frame metadata and free
// bitmaps page by page, so it allocates a small fraction of what the
// frame table costs (a full copy of it allocates about all of it). The
// measure is allocated bytes, not time, so the guard is deterministic.
func TestForkCostIsPageDirectories(t *testing.T) {
	spec := quickSpec(t, analytics.BFS, core.THPAlways(), core.FreshBoot())
	spec.Env = core.Pressured(int64(analytics.WSSBytes(spec.App, spec.Graph) / 16))
	spec.Env.MemoryBytes = 32 << 30
	cp, err := core.Prepare(spec)
	if err != nil {
		t.Fatal(err)
	}
	fp, _ := cp.Footprint()
	var frames uint64
	for _, r := range fp.Rows {
		if r.Subsystem == "memsys/frames" {
			frames = r.Bytes
		}
	}
	if frames < 64<<20 {
		t.Fatalf("memsys/frames row is %d bytes, want a 32 GB node's frame table", frames)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, img, err := cp.Fork()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(m)
	runtime.KeepAlive(img)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= frames/32 {
		t.Fatalf("a fork allocated %d bytes, want under 1/32 of the %d-byte frame table", alloc, frames)
	}
}
