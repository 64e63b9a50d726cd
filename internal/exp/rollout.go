package exp

import (
	"fmt"

	"graphmem/internal/analytics"
	"graphmem/internal/check"
	"graphmem/internal/core"
	"graphmem/internal/gen"
	"graphmem/internal/machine"
	"graphmem/internal/oskernel"
	"graphmem/internal/reorder"
	"graphmem/internal/stats"
	"graphmem/internal/vm"
)

// The ext-rollout experiment is the snapshot layer's headline use case:
// online page-size policy search. A real system cannot try five THP
// configurations on one process — every trial would perturb the mapping
// state the next trial starts from. With checkpoint forking it can, in
// simulation: freeze the machine right after initialization, fork one
// independent copy per candidate policy, apply the candidate to the
// fork (madvise calls, sysfs-style mode flips), and probe each copy
// with a short burst of the kernel's most translation-hostile traffic.
// Every candidate is scored from the *same* starting state, and the
// load phase — the expensive part — is paid once instead of once per
// candidate. This experiment is also the wall-clock witness for the
// snapshot layer: scripts/ci.sh step 11 times it with
// GRAPHMEM_NO_SNAPSHOT on and off, diffs the outputs byte-for-byte, and
// requires forking to cut the wall-clock by at least 2x.

// rolloutCandidate is one runtime page-size configuration applied to a
// fresh fork before probing.
type rolloutCandidate struct {
	name  string
	apply func(fm *machine.Machine, img *analytics.Image)
}

// rolloutCandidates are the policies the rollout scores. They span the
// paper's decision space: stay at 4KB, advise the whole property array,
// advise only its hot prefix (§5.2's selective knob), advise the
// sequentially-streamed edge array instead (Fig. 5's per-structure
// question), or flip system-wide THP on (the Linux default).
var rolloutCandidates = []rolloutCandidate{
	{"stay-4k", func(fm *machine.Machine, img *analytics.Image) {}},
	{"advise-prop", func(fm *machine.Machine, img *analytics.Image) {
		img.Prop.Madvise(0, img.Prop.Bytes, vm.AdviceHuge)
	}},
	{"advise-hot-prop", func(fm *machine.Machine, img *analytics.Image) {
		img.Prop.Madvise(0, img.Prop.Bytes/8, vm.AdviceHuge)
	}},
	{"advise-edge", func(fm *machine.Machine, img *analytics.Image) {
		img.Edge.Madvise(0, img.Edge.Bytes, vm.AdviceHuge)
	}},
	{"thp-always", func(fm *machine.Machine, img *analytics.Image) {
		fm.Kernel.SetMode(oskernel.ModeAlways)
	}},
}

// Rollout environment: generous slack with light fragmentation. The
// slack is deliberately larger than the evaluation's pressure levels —
// at simulated scale the paper's "+3GB" maps to less free memory than
// ONE 2MB huge block, a granularity artifact under which no policy can
// promote anything and every candidate ties. +24GB-equivalent keeps
// several huge blocks' worth of slack at every scale, and 25%
// fragmentation keeps compaction live without starving it.
const (
	rolloutSlackGB   = 24.0
	rolloutFragLevel = 0.25
)

// rolloutCfg names the shared load phase every candidate forks from:
// BFS at 4KB under madvise mode with nothing advised (core.DeferredTHP)
// in a moderately fragmented environment, so candidates start from a
// realistic contended state.
func rolloutCfg(ds gen.Dataset, env core.Environment) runCfg {
	return runCfg{
		app: analytics.BFS, ds: ds, method: reorder.Identity,
		order: analytics.Natural, policy: core.DeferredTHP(), env: env,
	}
}

// probeBudget sizes the per-candidate probe: enough gather traffic to
// span several khugepaged scan periods (so background promotion shows
// up in the scores) while staying far below the warmup.
func probeBudget(n int) int {
	b := n
	if b < 1<<20 {
		b = 1 << 20
	}
	return b
}

// warmupBudget sizes the shared pre-fork execution. The warmup stands
// in for the application's already-elapsed run — the state a live
// rollout would fork from — and it is the expensive phase the snapshot
// layer amortizes: paid once per dataset with snapshots on, once per
// candidate with GRAPHMEM_NO_SNAPSHOT set.
func warmupBudget(n int) int { return 8 * probeBudget(n) }

// Rollout runs the candidate tournament per dataset and reports each
// candidate's probe score, marking the per-dataset winner. Its forks
// are probed, not run to completion, so it requests no cells and does
// all its work during rendering; a recording does nothing.
func (s *Suite) Rollout() []*stats.Table {
	if s.recording() {
		return nil
	}
	t := stats.NewTable(
		"Extension: online policy rollout on checkpoint forks (BFS, +24GB, 25% frag)",
		"dataset", "candidate", "cyc/access", "walks/1k", "promoted", "img-huge", "pick")
	t.Note = "one load+warmup phase per dataset, one fork per candidate; lowest cycles/access wins"
	for _, ds := range gen.AllDatasets {
		e := s.graph(ds, false, reorder.Identity)
		env := s.envFragmented(analytics.BFS, ds, rolloutSlackGB, rolloutFragLevel)
		cfg := rolloutCfg(ds, env)
		cp, err := core.Prepare(s.spec(cfg))
		if err != nil {
			panic(check.Failf("exp: prepare %s: %v", cfg.key(), err))
		}
		warm, probe := warmupBudget(e.g.N), probeBudget(e.g.N)

		type scored struct {
			name string
			r    analytics.ProbeResult
		}
		rows := make([]scored, 0, len(rolloutCandidates))
		if core.SnapshotsDisabled() {
			// Escape-hatch path: no machine is ever forked. Each candidate
			// replays init (via the deferred checkpoint) and the warmup
			// from scratch — determinism makes the replayed state
			// identical to a fork, which is what the CI byte-diff checks.
			for _, cand := range rolloutCandidates {
				fm, img, err := cp.Fork()
				if err != nil {
					panic(check.Failf("exp: rollout replay %s/%s: %v", ds, cand.name, err))
				}
				img.RunProbe(warm)
				cand.apply(fm, img)
				rows = append(rows, scored{cand.name, img.RunProbe(probe)})
			}
		} else {
			fm0, img0, err := cp.Fork()
			if err != nil {
				panic(check.Failf("exp: rollout fork %s: %v", ds, err))
			}
			img0.RunProbe(warm)
			for _, cand := range rolloutCandidates {
				fm, img := core.ForkPair(fm0, img0)
				cand.apply(fm, img)
				rows = append(rows, scored{cand.name, img.RunProbe(probe)})
			}
		}
		best := 0
		for i := range rows {
			if rows[i].r.CyclesPerAccess() < rows[best].r.CyclesPerAccess() {
				best = i
			}
		}
		for i, sc := range rows {
			pick := ""
			if i == best {
				pick = "<="
			}
			acc := sc.r.Accesses
			if acc == 0 {
				acc = 1
			}
			t.AddRow(string(ds), sc.name,
				stats.F(sc.r.CyclesPerAccess(), 2),
				stats.F(float64(sc.r.Walks)*1000/float64(acc), 1),
				fmt.Sprint(sc.r.Promotions),
				stats.MB(sc.r.HugeBytes),
				pick)
		}
	}
	return []*stats.Table{t}
}
