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
// candidate. TestRolloutForkMatchesReplay holds the tournament to
// scoring every candidate on its own freshly prepared and warmed
// machine, and TestRolloutForkSpeedup requires forking to cut the
// tournament's wall-clock by at least 2x against that replay.

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
// rollout would fork from — and it is, with the load phase, the
// expensive part the forks amortize: paid once per dataset, not once
// per candidate.
func warmupBudget(n int) int { return 8 * probeBudget(n) }

// rolloutSpec returns ds's shared load phase and the warmup and probe
// budgets every candidate runs with.
func (s *Suite) rolloutSpec(ds gen.Dataset) (spec core.RunSpec, warm, probe int) {
	env := s.envFragmented(analytics.BFS, ds, rolloutSlackGB, rolloutFragLevel)
	n := s.graph(ds, false, reorder.Identity).g.N
	return s.spec(rolloutCfg(ds, env)), warmupBudget(n), probeBudget(n)
}

// rolloutScores runs ds's candidate tournament: one load phase and one
// warmup, then one fork of the warmed pair per candidate, probed after
// the candidate is applied. The scores are in rolloutCandidates order.
func (s *Suite) rolloutScores(ds gen.Dataset) []analytics.ProbeResult {
	spec, warm, probe := s.rolloutSpec(ds)
	cp, err := core.Prepare(spec)
	if err != nil {
		panic(check.Failf("exp: rollout prepare %s: %v", ds, err))
	}
	fm0, img0, _ := cp.Fork() // the error is always nil
	img0.RunProbe(warm)
	scores := make([]analytics.ProbeResult, len(rolloutCandidates))
	for i, cand := range rolloutCandidates {
		fm, img := core.ForkPair(fm0, img0)
		cand.apply(fm, img)
		scores[i] = img.RunProbe(probe)
	}
	return scores
}

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
		scores := s.rolloutScores(ds)
		best := 0
		for i := range scores {
			if scores[i].CyclesPerAccess() < scores[best].CyclesPerAccess() {
				best = i
			}
		}
		for i, r := range scores {
			pick := ""
			if i == best {
				pick = "<="
			}
			acc := r.Accesses
			if acc == 0 {
				acc = 1
			}
			t.AddRow(string(ds), rolloutCandidates[i].name,
				stats.F(r.CyclesPerAccess(), 2),
				stats.F(float64(r.Walks)*1000/float64(acc), 1),
				fmt.Sprint(r.Promotions),
				stats.MB(r.HugeBytes),
				pick)
		}
	}
	return []*stats.Table{t}
}
