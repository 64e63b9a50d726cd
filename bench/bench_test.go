package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"graphmem/internal/analytics"
	"graphmem/internal/core"
	"graphmem/internal/gen"
	"graphmem/internal/reorder"
)

func testGoldens(t *testing.T) goldenDigests {
	t.Helper()
	g, err := embeddedGoldens()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func runTest(t *testing.T, workload string, trace bool, goldens goldenDigests) *result {
	t.Helper()
	r, err := run(config{workload: workload, size: "test", seed: 1, trace: trace}, goldens)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestManifestMatchesBenchmarkJSON pins BENCHMARK.json to the metrics
// and workloads the code defines.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.EndToEnd, endToEnd) {
		t.Errorf("end_to_end = %+v, code defines %+v", m.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(m.PerLayer, perLayer) {
		t.Errorf("per_layer = %+v, code defines %+v", m.PerLayer, perLayer)
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("workloads = %v, code defines %v", names, workloadNames())
	}
	if !slices.Equal(m.Paths, []string{"bench"}) || len(m.Command) < 2 || m.Command[1] != "bench/run.sh" {
		t.Errorf("paths %v / command %v do not point at bench/run.sh", m.Paths, m.Command)
	}
}

// TestWorkloadsAtTestSize runs every workload traced and untraced: both
// pass their checks, report every manifest metric, agree on every
// simulated counter, and the traced run's span tree is well formed.
func TestWorkloadsAtTestSize(t *testing.T) {
	goldens := testGoldens(t)
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			plain := runTest(t, w, false, goldens)
			traced := runTest(t, w, true, goldens)
			for _, r := range []*result{plain, traced} {
				if r.failed != 0 || r.attempted == 0 {
					t.Fatalf("attempted %d, failed %d: %v", r.attempted, r.failed, r.failures)
				}
			}
			if len(plain.tr.spans) != 0 {
				t.Errorf("untraced run recorded %d spans", len(plain.tr.spans))
			}
			if a, b := simulatedMetrics(plain), simulatedMetrics(traced); !maps.Equal(a, b) {
				t.Errorf("simulated counters differ with tracing on:\n%v\n%v", a, b)
			}
			for name, v := range endToEndMetrics(plain) {
				if !(v > 0) {
					t.Errorf("end-to-end %s = %v, want > 0", name, v)
				}
			}
			checkSummary(t, plain, endToEnd)
			checkSummary(t, traced, perLayer)
			checkSpanTree(t, traced.tr.spans)
		})
	}
}

// checkSummary runs the report and checks its last line: the summary
// with exactly the manifest's metrics and their units.
func checkSummary(t *testing.T, r *result, defs []metricDef) {
	t.Helper()
	var out, errs bytes.Buffer
	if err := finish(r, &out, &errs, "", "", ""); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var s struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]metricValue
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !s.Correct || s.Attempted != r.attempted || len(s.Metrics) != len(defs) {
		t.Errorf("summary %+v does not match the run (attempted %d, %d metrics)", s, r.attempted, len(defs))
	}
	for _, d := range defs {
		if m, ok := s.Metrics[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("summary metric %s = %+v, want unit %s", d.Name, m, d.Unit)
		}
		if !strings.Contains(out.String(), "\n"+d.Name+" "+r.cfg.workload+" ") && !strings.HasPrefix(out.String(), d.Name+" ") {
			t.Errorf("no %q line for %s", d.Name, r.cfg.workload)
		}
	}
}

func checkSpanTree(t *testing.T, spans []span) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("traced run recorded no spans")
	}
	self := selfTimes(spans)
	for i, s := range spans {
		if s.ID != i+1 || s.Parent < 0 || s.Parent >= s.ID {
			t.Errorf("span %+v: ids must count from 1 and name a root (0) or an earlier span as parent", s)
		}
		if s.End < s.Start || self[i] < -1e-9 {
			t.Errorf("span %+v: end before start or negative self time %g", s, self[i])
		}
		if s.Name == "bench.timed" && self[i] > 0.1*(s.End-s.Start) {
			t.Errorf("timed phase %+v: children leave %.3gs of it uncovered", s, self[i])
		}
	}
}

// TestFlippedOutputFails checks the reference gate: one changed hop
// count or one rank beyond tolerance fails the cell.
func TestFlippedOutputFails(t *testing.T) {
	g := gen.Kronecker(10, 8, false, 0, 1)
	for _, app := range []analytics.App{analytics.BFS, analytics.PR} {
		res, err := core.Run(core.RunSpec{Graph: g, App: app, Reorder: reorder.Identity, Policy: core.THPAlways(),
			Env: core.FreshBoot(), Run: runOptions(g)})
		if err != nil {
			t.Fatal(err)
		}
		for _, flip := range []bool{false, true} {
			r := &result{digests: map[string]string{}, failedNow: map[string]bool{}}
			out := res.Output
			if flip {
				out.Hops = slices.Clone(out.Hops)
				out.Ranks = slices.Clone(out.Ranks)
				if app == analytics.BFS {
					out.Hops[7]++
				} else {
					out.Ranks[7] *= 1 + 1e-8
				}
			}
			flipped := *res
			flipped.Output = out
			r.verifyRun(map[refKey]analytics.Result{}, "cell", &flipped)
			if got := r.failed > 0; got != flip {
				t.Errorf("%s, flipped=%v: failed=%d (%v)", app, flip, r.failed, r.failures)
			}
		}
	}
}

// TestFlippedGoldenFails checks the digest gate on a table-digest
// workload and a RunResult-digest workload.
func TestFlippedGoldenFails(t *testing.T) {
	for _, tc := range []struct{ workload, key, cell string }{
		{"paper-full", "test/paper-full/seed1", "bfs/thp/frag50"},
		{"paper-bench", "test/paper-bench", "fig10"},
	} {
		goldens := testGoldens(t)
		if _, ok := goldens[tc.key][tc.cell]; !ok {
			t.Fatalf("no golden %s %s", tc.key, tc.cell)
		}
		goldens[tc.key][tc.cell] = strings.Repeat("0", 64)
		r := runTest(t, tc.workload, false, goldens)
		if r.failed != 1 || !strings.Contains(strings.Join(r.failures, "\n"), tc.cell) {
			t.Errorf("%s: failed=%d, failures %v; want exactly %s", tc.workload, r.failed, r.failures, tc.cell)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) and ([1, 2, 3, 4, 5], n=4).
	for _, tc := range []struct {
		xs   []float64
		want quartiles
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, quartiles{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5}, quartiles{1.5, 3, 4.5}},
		{[]float64{4}, quartiles{4, 4, 4}},
	} {
		if got := quartilesOf(tc.xs); got != tc.want {
			t.Errorf("quartilesOf(%v) = %+v, want %+v", tc.xs, got, tc.want)
		}
	}
	if got := percentile([]float64{5, 1, 4, 2, 3}, 0.9); got != 4.6 {
		t.Errorf("p90 = %v, want 4.6", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "a", Start: 1, End: 4},
		{ID: 3, Parent: 1, Name: "b", Start: 3, End: 6},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 8, End: 12}, // clipped at the root's end
		{ID: 5, Parent: 2, Name: "d", Start: 2, End: 3},
	}
	want := []float64{3, 2, 3, 4, 1}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{"wall_s", "s", "lower", 0.10}
	higher := metricDef{"rate", "1/s", "higher", 0.10}
	steady := []float64{10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{6, 14, 8, 12, 10, 7, 13, 9, 11, 10}
	for _, tc := range []struct {
		name         string
		d            metricDef
		p, c         []float64
		moreFailures bool
		want         string
	}{
		{"same", lower, steady, steady, false, unchanged},
		{"slightly faster", lower, steady, scale(steady, 0.99), false, unchanged},
		{"much slower", lower, steady, scale(steady, 1.2), false, regressed},
		{"faster", lower, steady, scale(steady, 0.9), false, improved},
		{"faster but failing", lower, steady, scale(steady, 0.9), true, unchanged},
		{"higher is better", higher, steady, scale(steady, 1.1), false, improved},
		{"higher regressed", higher, steady, scale(steady, 0.8), false, regressed},
		{"noisy", lower, noisy, noisy, false, unresolved},
		{"noisy but every run better", lower, noisy, scale(noisy, 0.4), false, improved},
	} {
		if got := judge(tc.d, tc.p, tc.c, tc.moreFailures).Verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareRefusesAcrossHosts(t *testing.T) {
	rec := func(cpu string) record {
		return record{Host: host{CPU: cpu, NumCPU: 2, GOMAXPROCS: 2, Go: "go1.24"}, Workload: "paper-full",
			Metrics: map[string]float64{"wall_s": 1}}
	}
	if _, err := compare([]record{rec("a")}, []record{rec("a")}); err != nil {
		t.Errorf("same host: %v", err)
	}
	if _, err := compare([]record{rec("a")}, []record{rec("b")}); err == nil {
		t.Error("different hosts: compare gave a verdict")
	}
}

func TestFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"-trace", "2"}, 2},
		{[]string{"-seconds", "-1"}, 2},
		{[]string{"-nope"}, 2},
		{[]string{"-workload", "nope"}, 1},
		{[]string{"-workload", "paper-full", "-size", "huge"}, 1},
	} {
		var out, errs bytes.Buffer
		if got := benchMain(tc.args, &out, &errs); got != tc.code || out.Len() != 0 {
			t.Errorf("%v: exit %d (want %d), stdout %q", tc.args, got, tc.code, out.String())
		}
	}
}
