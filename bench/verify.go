package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"

	"graphmem/internal/analytics"
	"graphmem/internal/core"
	"graphmem/internal/graph"
)

// goldenDigests maps a golden key (goldenKey) to each cell's expected
// output digest: a SHA-256 of the rendered tables for paper-bench
// experiments, of the RunResult for the other workloads' cells.
type goldenDigests map[string]map[string]string

//go:embed testdata/digests.json
var digestsJSON []byte

func embeddedGoldens() (goldenDigests, error) {
	var g goldenDigests
	if err := json.Unmarshal(digestsJSON, &g); err != nil {
		return nil, fmt.Errorf("testdata/digests.json: %w", err)
	}
	return g, nil
}

// goldenKey names the goldens that apply to a run, or "" when none do.
// paper-bench's datasets are fixed (its seed only reorders the
// experiments), so its goldens hold at every seed; the other workloads
// generate their graphs from the seed and are pinned at seed 1.
func goldenKey(cfg config) string {
	if cfg.workload == "paper-bench" {
		return cfg.size + "/" + cfg.workload
	}
	if cfg.seed != 1 {
		return ""
	}
	return cfg.size + "/" + cfg.workload + "/seed1"
}

// writeGoldens stores digests under key in the JSON file at path,
// keeping every other key.
func writeGoldens(path, key string, digests map[string]string) error {
	g := goldenDigests{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &g); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	g[key] = digests
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// settle records a cell's output digest. Later rounds must reproduce
// round one's digest exactly, and round one must match the golden.
func (r *result) settle(cell, digest string) {
	if r.rounds > 0 {
		if want := r.digests[cell]; digest != want {
			r.fail(cell, fmt.Errorf("digest %.12s differs from round one's %.12s", digest, want))
		}
		return
	}
	r.digests[cell] = digest
	if r.golden == nil {
		return
	}
	if want, ok := r.golden[cell]; !ok {
		r.fail(cell, errors.New("no golden digest"))
	} else if digest != want {
		r.fail(cell, fmt.Errorf("digest %.12s, golden %.12s", digest, want))
	}
}

// runDigest hashes everything a Run reports except the input graph,
// which the spec points to and the seed already pins.
func runDigest(res *core.RunResult) (string, error) {
	c := *res
	c.Spec.Graph = nil
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(&c); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// refKey identifies a native reference output: the kernel on one graph.
type refKey struct {
	g   *graph.Graph
	app analytics.App
}

// verifyRun checks one simulated Run against the plain-Go reference
// kernel on the same graph (memoized in refs) and settles its digest.
func (r *result) verifyRun(refs map[refKey]analytics.Result, cell string, res *core.RunResult) {
	spec := res.Spec
	k := refKey{spec.Graph, spec.App}
	want, ok := refs[k]
	if !ok {
		switch spec.App {
		case analytics.BFS:
			want.Hops = analytics.NativeBFS(spec.Graph, spec.Run.Root)
		case analytics.PR:
			want.Ranks, want.Iterations = analytics.NativePR(spec.Graph, spec.Run.PREpsilon, spec.Run.PRMaxIters)
		}
		refs[k] = want
	}
	if err := matchOutput(spec.App, res.Output, want); err != nil {
		r.fail(cell, err)
	}
	d, err := runDigest(res)
	if err != nil {
		r.fail(cell, err)
		return
	}
	r.settle(cell, d)
}

// prTolerance is the relative rank error allowed against NativePR: the
// simulated kernels may sum contributions in another order.
const prTolerance = 1e-9

// matchOutput compares a simulated kernel's output with the reference.
func matchOutput(app analytics.App, got, want analytics.Result) error {
	switch app {
	case analytics.BFS:
		if len(got.Hops) != len(want.Hops) {
			return fmt.Errorf("bfs: %d hop counts, native %d", len(got.Hops), len(want.Hops))
		}
		for v, h := range want.Hops {
			if got.Hops[v] != h {
				return fmt.Errorf("bfs: hops[%d] = %d, native %d", v, got.Hops[v], h)
			}
		}
	case analytics.PR:
		if got.Iterations != want.Iterations {
			return fmt.Errorf("pr: %d iterations, native %d", got.Iterations, want.Iterations)
		}
		if len(got.Ranks) != len(want.Ranks) {
			return fmt.Errorf("pr: %d ranks, native %d", len(got.Ranks), len(want.Ranks))
		}
		for v, x := range want.Ranks {
			if !(math.Abs(got.Ranks[v]-x) <= prTolerance*math.Abs(x)) { // a NaN rank fails too
				return fmt.Errorf("pr: rank[%d] = %g, native %g", v, got.Ranks[v], x)
			}
		}
	default:
		return fmt.Errorf("no native reference for %s", app)
	}
	return nil
}
