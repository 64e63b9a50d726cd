package exp

import (
	"os"
	"reflect"
	"testing"
	"time"

	"graphmem/internal/analytics"
	"graphmem/internal/core"
	"graphmem/internal/gen"
)

// rolloutReplay scores ds's candidates without forking from a sibling:
// each candidate gets its own machine, prepared from the spec and
// warmed, before it is applied and probed. It is the reference the
// fork tournament (rolloutScores) must match.
func rolloutReplay(t testing.TB, s *Suite, ds gen.Dataset) []analytics.ProbeResult {
	t.Helper()
	spec, warm, probe := s.rolloutSpec(ds)
	scores := make([]analytics.ProbeResult, len(rolloutCandidates))
	for i, cand := range rolloutCandidates {
		cp, err := core.Prepare(spec)
		if err != nil {
			t.Fatal(err)
		}
		fm, img, _ := cp.Fork()
		img.RunProbe(warm)
		cand.apply(fm, img)
		scores[i] = img.RunProbe(probe)
	}
	return scores
}

// TestRolloutForkMatchesReplay holds the rollout's mid-probe forks to
// replay: on every dataset, each candidate's ProbeResult from the fork
// tournament must equal the one it scores on its own freshly prepared
// and warmed machine. It runs at bench scale, where candidates walk
// page tables and khugepaged promotes during the probe (at test scale
// every candidate scores alike); the probe's fixed minimum budget makes
// that barely dearer, ~25 s for its twenty-four load phases and
// warmups. Under race instrumentation they would overrun the package's
// test timeout while exercising no concurrency of their own, so the
// test skips there.
func TestRolloutForkMatchesReplay(t *testing.T) {
	if raceEnabled {
		t.Skip("runs twenty-four load phases and warmups; skipped under -race")
	}
	t.Parallel()
	s := NewSuite(gen.ScaleBench, nil)
	for _, ds := range gen.AllDatasets {
		got, want := s.rolloutScores(ds), rolloutReplay(t, s, ds)
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("%s/%s: fork scored %+v, replay %+v", ds, rolloutCandidates[i].name, got[i], want[i])
			}
		}
	}
}

// TestRolloutForkSpeedup is the rollout's wall-clock gate: at bench
// scale, the fork tournament over every dataset must take at most half
// the time of the same tournament replayed (rolloutReplay), which
// prepares and warms one machine per candidate. Each side is the min of
// three runs, fork and replay interleaved, with the datasets generated
// before either is timed; both must score the same.
//
// Wall-clock assertions are meaningless under -race or on an
// arbitrarily loaded host, so the test skips unless
// GRAPHMEM_SPEEDUP_GATE is set; ci.sh step 10 opts in.
func TestRolloutForkSpeedup(t *testing.T) {
	if os.Getenv("GRAPHMEM_SPEEDUP_GATE") == "" {
		t.Skip("set GRAPHMEM_SPEEDUP_GATE=1 to run the wall-clock gate (ci.sh step 10)")
	}
	s := NewSuite(gen.ScaleBench, nil)
	for _, ds := range gen.AllDatasets {
		s.rolloutSpec(ds)
	}
	tournament := func(score func(gen.Dataset) []analytics.ProbeResult) ([][]analytics.ProbeResult, time.Duration) {
		start := time.Now()
		var scores [][]analytics.ProbeResult
		for _, ds := range gen.AllDatasets {
			scores = append(scores, score(ds))
		}
		return scores, time.Since(start)
	}
	replayScore := func(ds gen.Dataset) []analytics.ProbeResult { return rolloutReplay(t, s, ds) }

	const reps = 3
	fork := time.Duration(1 << 62)
	replay := time.Duration(1 << 62)
	for i := 0; i < reps; i++ {
		got, d := tournament(s.rolloutScores)
		fork = min(fork, d)
		want, d := tournament(replayScore)
		replay = min(replay, d)
		if !reflect.DeepEqual(got, want) {
			t.Fatal("the fork tournament scored differently from its replay")
		}
	}
	speedup := float64(replay) / float64(fork)
	t.Logf("rollout fork_ms=%d replay_ms=%d speedup=%.2f",
		fork.Milliseconds(), replay.Milliseconds(), speedup)
	if speedup < 2 {
		t.Errorf("rollout fork speedup %.2fx (fork=%v replay=%v), want >= 2x: forks are not amortizing the load phase and warmup",
			speedup, fork, replay)
	}
}
