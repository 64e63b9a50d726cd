package core_test

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"graphmem/internal/analytics"
	"graphmem/internal/core"
	"graphmem/internal/graph"
)

// shardedSpec is quickSpec with the sharded engine enabled.
func shardedSpec(t *testing.T, app analytics.App, p core.Policy, shards int) core.RunSpec {
	t.Helper()
	spec := quickSpec(t, app, p, stressedEnv())
	spec.Shards = shards
	return spec
}

// TestShardedDeterministicAcrossWorkers is the tentpole property test:
// for every standard machine configuration, a 4-shard run must produce
// a deeply equal RunResult — every cycle count, fault counter, array
// statistic, per-shard kernel cycle, and output bit — whether 1, 2, 4,
// or 8 worker goroutines drive the shards. The worker count (GOMAXPROCS,
// clamped to the shard count) is an execution knob, never a modeling
// knob.
func TestShardedDeterministicAcrossWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, pol := range snapshotConfigs() {
		t.Run(pol.Name, func(t *testing.T) {
			spec := shardedSpec(t, analytics.BFS, pol, 4)
			var ref *core.RunResult
			for _, workers := range []int{1, 2, 4, 8} {
				runtime.GOMAXPROCS(workers)
				got, err := core.Run(spec)
				if err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					ref = got
					continue
				}
				if !reflect.DeepEqual(ref, got) {
					t.Fatalf("%d workers diverged from 1 worker:\n--- 1 worker ---\n%s--- %d workers ---\n%s",
						workers, formatResult(ref), workers, formatResult(got))
				}
			}
			if len(ref.ShardKernelCycles) != 4 {
				t.Fatalf("ShardKernelCycles = %v, want 4 entries", ref.ShardKernelCycles)
			}
		})
	}
}

// TestShardedForkMatchesReplay is the sharded half of the
// GRAPHMEM_NO_SNAPSHOT equivalence:
// fork-based shard bring-up must be byte-identical to bringing every
// shard up by replaying the load phase from the spec — the property
// ci.sh step 12 verifies on a whole campaign. The Checkpoint path must
// agree too (the campaign layer runs sharded cells through it).
func TestShardedForkMatchesReplay(t *testing.T) {
	for _, app := range []analytics.App{analytics.BFS, analytics.PR} {
		t.Run(string(app), func(t *testing.T) {
			spec := shardedSpec(t, app, core.THPAlways(), 4)
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
				t.Fatalf("checkpointed sharded run diverged from monolithic path:\n--- Run ---\n%s--- Checkpoint.Run ---\n%s",
					formatResult(ref), formatResult(got))
			}

			t.Setenv("GRAPHMEM_NO_SNAPSHOT", "1")
			got, err = core.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ref, got) {
				t.Fatalf("replay bring-up diverged from fork bring-up:\n--- fork ---\n%s--- replay ---\n%s",
					formatResult(ref), formatResult(got))
			}
		})
	}
}

// TestShardedOutputsCorrect checks the sharded kernels still compute
// the right answers: traversal outputs (hops, distances, labels) must
// equal the monolithic kernel's exactly; the float workloads (PR
// ranks, BC centrality) accumulate in a different — but deterministic
// — order, so they match to a tolerance.
func TestShardedOutputsCorrect(t *testing.T) {
	for _, app := range analytics.ExtendedApps {
		t.Run(string(app), func(t *testing.T) {
			mono := quickSpec(t, app, core.THPAlways(), core.FreshBoot())
			ref, err := core.Run(mono)
			if err != nil {
				t.Fatal(err)
			}
			spec := mono
			spec.Shards = 4
			got, err := core.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			r, g := ref.Output, got.Output
			if !reflect.DeepEqual(r.Hops, g.Hops) || !reflect.DeepEqual(r.Dist, g.Dist) || !reflect.DeepEqual(r.Labels, g.Labels) {
				t.Fatal("sharded traversal output diverged from monolithic kernel")
			}
			close := func(a, b []float64) {
				if len(a) != len(b) {
					t.Fatalf("float output length %d != %d", len(a), len(b))
				}
				for i := range a {
					if math.Abs(a[i]-b[i]) > 1e-9*(1+math.Abs(a[i])) {
						t.Fatalf("float output [%d]: %g (monolithic) vs %g (sharded)", i, a[i], b[i])
					}
				}
			}
			close(r.Ranks, g.Ranks)
			close(r.Centrality, g.Centrality)
			if r.Iterations != g.Iterations {
				t.Fatalf("PR iterations %d (monolithic) vs %d (sharded)", r.Iterations, g.Iterations)
			}
		})
	}
}

// TestShardedWorkerHammer drives every extended app sharded with more
// workers than shards, twice, comparing results — the -race target for
// the barrier protocol (shared state is only ever written by the
// owning shard between barriers; the race detector proves it while the
// comparison proves the schedule cannot leak into the output).
func TestShardedWorkerHammer(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	for _, app := range analytics.ExtendedApps {
		spec := shardedSpec(t, app, core.SelectiveTHP(0.5), 8)
		a, err := core.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		b, err := core.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: back-to-back hammer runs diverged", app)
		}
	}
}

// TestShardedRejectsUnsafeSpecs: sharding forks the prepared machine,
// so the same tickered specs Prepare refuses must be refused by Run,
// and the owner table bounds the shard count.
func TestShardedRejectsUnsafeSpecs(t *testing.T) {
	env := stressedEnv()
	env.ChurnBytes = 1 << 20
	spec := quickSpec(t, analytics.BFS, core.THPAlways(), env)
	spec.Shards = 4
	if _, err := core.Run(spec); err == nil {
		t.Fatal("Run accepted a churning sharded spec")
	}
	spec = shardedSpec(t, analytics.BFS, core.THPAlways(), 256)
	if _, err := core.Run(spec); err == nil {
		t.Fatal("Run accepted 256 shards (owner table is uint8)")
	}
}

// TestShardedMoreShardsThanVertices: every shard count must be valid
// on every graph; shards past the vertex count simply come out empty.
func TestShardedMoreShardsThanVertices(t *testing.T) {
	g, err := graph.FromEdges(3, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}}, false)
	if err != nil {
		t.Fatal(err)
	}
	spec := shardedSpec(t, analytics.BFS, core.THPAlways(), 8)
	spec.Graph = g
	res, err := core.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{0, 1, 2}
	if !reflect.DeepEqual(res.Output.Hops, want) {
		t.Fatalf("hops = %v, want %v", res.Output.Hops, want)
	}
}

// TestShardsOneIsMonolithic: Shards values 0 and 1 must take the
// monolithic path exactly — bit-identical results, no shard vector.
func TestShardsOneIsMonolithic(t *testing.T) {
	ref, err := core.Run(quickSpec(t, analytics.BFS, core.THPAlways(), stressedEnv()))
	if err != nil {
		t.Fatal(err)
	}
	spec := quickSpec(t, analytics.BFS, core.THPAlways(), stressedEnv())
	spec.Shards = 1
	got, err := core.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	got.Spec.Shards = 0
	if !reflect.DeepEqual(ref, got) {
		t.Fatal("Shards=1 diverged from the monolithic engine")
	}
	if got.ShardKernelCycles != nil {
		t.Fatal("monolithic run carries ShardKernelCycles")
	}
}

// TestShardedMakespan: the merged kernel time must be the barrier
// makespan — at least the slowest shard, at most the serial sum — and
// TotalCycles must be built from it.
func TestShardedMakespan(t *testing.T) {
	res, err := core.Run(shardedSpec(t, analytics.BFS, core.THPAlways(), 4))
	if err != nil {
		t.Fatal(err)
	}
	var sum, max uint64
	for _, c := range res.ShardKernelCycles {
		sum += c
		if c > max {
			max = c
		}
	}
	if res.KernelCycles < max || res.KernelCycles > sum {
		t.Fatalf("makespan %d outside [slowest shard %d, serial sum %d]", res.KernelCycles, max, sum)
	}
	if res.TotalCycles != res.PreprocessCycles+res.InitCycles+res.KernelCycles {
		t.Fatal("TotalCycles does not decompose into preprocess+init+makespan")
	}
	if res.KernelCycles >= sum {
		t.Fatalf("4-shard makespan %d shows no overlap over serial sum %d", res.KernelCycles, sum)
	}
}

// TestConcurrentCheckpointRuns: campaign workers fork one cached
// checkpoint at once, each fork shares the frozen node's memory pages,
// and every run copies the pages it writes. Concurrent Runs — sharded,
// and monolithic, whose kernels each stream to their own replay
// goroutine — must each reproduce the serial result (go test -race
// checks the sharing).
func TestConcurrentCheckpointRuns(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cp, err := core.Prepare(shardedSpec(t, analytics.BFS, core.SelectiveTHP(0.5), shards))
			if err != nil {
				t.Fatal(err)
			}
			ref, err := cp.Run()
			if err != nil {
				t.Fatal(err)
			}
			const runners = 4
			results := make([]*core.RunResult, runners)
			errs := make([]error, runners)
			var wg sync.WaitGroup
			for i := range results {
				wg.Add(1)
				go func() {
					defer wg.Done()
					results[i], errs[i] = cp.Run()
				}()
			}
			wg.Wait()
			for i, got := range results {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				if !reflect.DeepEqual(ref, got) {
					t.Fatalf("concurrent run %d diverged from the serial run:\n--- serial ---\n%s--- concurrent ---\n%s",
						i, formatResult(ref), formatResult(got))
				}
			}
		})
	}
}
