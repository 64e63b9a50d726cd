package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// moduleRoot locates the repository root (the directory with go.mod)
// relative to this package.
func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

type want struct {
	rule string
	line int
}

// TestRuleFixtures lints each seeded-violation fixture as if it lived
// in internal/ and asserts the exact (rule, line) diagnostics. A case
// may override the import path: the interprocedural fixtures
// impersonate the real entrypoint packages so the facts engine treats
// their Run/Tick as simulation entrypoints.
func TestRuleFixtures(t *testing.T) {
	cases := []struct {
		dir  string
		path string // import path override; default internal/<dir>
		want []want
	}{
		{dir: "sl001", want: []want{{"SL001", 8}, {"SL001", 9}}},
		{dir: "sl002", want: []want{{"SL002", 8}, {"SL002", 9}}},
		{dir: "sl003", want: []want{{"SL003", 18}, {"SL003", 25}}},
		{dir: "sl004", want: []want{{"SL004", 14}, {"SL004", 15}, {"SL004", 16}, {"SL004", 21}}},
		{dir: "sl005", want: []want{{"SL005", 13}, {"SL005", 20}}},
		{dir: "sl006", want: []want{{"SL006", 17}, {"SL006", 18}}},
		{dir: "sl007", want: []want{{"SL007", 17}, {"SL007", 18}, {"SL007", 19}, {"SL007", 21}}},
		{dir: "sl008", want: []want{{"SL008", 15}, {"SL008", 18}}},
		{dir: "sl009", want: []want{{"SL009", 15}, {"SL009", 18}, {"SL009", 21}}},
		// The fixture's stampWaived leaf (line 58) is reachable from Run
		// too, but its SL001 waiver also covers SL010's echo at that
		// line, so no diagnostic is expected there.
		{dir: "sl010", path: ModulePath + "/internal/core", want: []want{
			{"SL001", 33}, {"SL010", 33},
			{"SL002", 38}, {"SL010", 38},
			{"SL003", 45}, {"SL010", 45},
		}},
		{dir: "sl011", path: ModulePath + "/internal/oskernel", want: []want{
			{"SL011", 12}, {"SL011", 34},
		}},
		{dir: "sl012", want: []want{{"SL012", 11}, {"SL012", 12}}},
		// Tracker.count (line 26) is the seeded gap, reached fields and
		// the waived note stay silent; lines 45 and 56 walk a padded
		// struct as raw memory, as a fixed value and as paged elements.
		{dir: "sl013", want: []want{{"SL013", 26}, {"SL013", 45}, {"SL013", 56}}},
		// helpers.go:20 is the write scatter reaches through two untagged
		// hops; worker.go:16 is the direct write in the tagged file.
		// drain (shard-owned state only) stays silent.
		{dir: "sl014", want: []want{{"SL014", 20}, {"SL014", 16}}},
		{dir: "waiver", want: []want{
			{"SL001", 24}, {"SL000", 24},
			{"SL001", 29}, {"SL000", 29},
		}},
		{dir: "clean"},
	}
	r := NewRunner(moduleRoot(t))
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			importPath := tc.path
			if importPath == "" {
				importPath = ModulePath + "/internal/" + tc.dir
			}
			dir := filepath.Join("testdata", tc.dir)
			diags, err := r.LintDir(importPath, dir)
			if err != nil {
				t.Fatalf("LintDir: %v", err)
			}
			if len(diags) != len(tc.want) {
				t.Fatalf("got %d diagnostics, want %d:\n%s", len(diags), len(tc.want), render(diags))
			}
			for i, w := range tc.want {
				d := diags[i]
				if d.Rule != w.rule || d.Pos.Line != w.line {
					t.Errorf("diag %d = %s at line %d, want %s at line %d", i, d.Rule, d.Pos.Line, w.rule, w.line)
				}
			}
		})
	}
}

func render(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestFixturesExemptOutsideInternal verifies the Applies predicates:
// linted under a cmd/ path, only the module-wide rules (SL002, SL004)
// still fire on the same fixture sources.
func TestFixturesExemptOutsideInternal(t *testing.T) {
	r := NewRunner(moduleRoot(t))
	diags, err := r.LintDir(ModulePath+"/cmd/sl001", filepath.Join("testdata", "sl001"))
	if err != nil {
		t.Fatalf("LintDir: %v", err)
	}
	if len(diags) != 0 {
		t.Fatalf("SL001 fired outside internal/:\n%s", render(diags))
	}
	diags, err = r.LintDir(ModulePath+"/cmd/sl002", filepath.Join("testdata", "sl002"))
	if err != nil {
		t.Fatalf("LintDir: %v", err)
	}
	if len(diags) != 2 {
		t.Fatalf("SL002 must stay module-wide, got:\n%s", render(diags))
	}
}

// TestRuleTableIsWellFormed checks IDs are unique, sequential, and
// resolvable through RuleByID.
func TestRuleTableIsWellFormed(t *testing.T) {
	rules := AllRules()
	seen := make(map[string]bool)
	for _, r := range rules {
		if !strings.HasPrefix(r.ID, "SL") || len(r.ID) != 5 {
			t.Errorf("rule ID %q is not of the form SLnnn", r.ID)
		}
		if seen[r.ID] {
			t.Errorf("duplicate rule ID %s", r.ID)
		}
		seen[r.ID] = true
		if r.Name == "" || r.Doc == "" || r.Check == nil {
			t.Errorf("rule %s is missing name/doc/check", r.ID)
		}
		got, ok := RuleByID(r.ID)
		if !ok || got.Name != r.Name {
			t.Errorf("RuleByID(%s) failed", r.ID)
		}
	}
	if _, ok := RuleByID("SL999"); ok {
		t.Error("RuleByID invented a rule")
	}
}

// TestInterprocChainMessages pins the exact diagnostic text of the
// interprocedural rules: SL010 must print the full call chain from the
// entrypoint to the offending construct, SL012 the allocation chain
// from the call site out of the fastpath file.
func TestInterprocChainMessages(t *testing.T) {
	r := NewRunner(moduleRoot(t))

	diags, err := r.LintDir(ModulePath+"/internal/core", filepath.Join("testdata", "sl010"))
	if err != nil {
		t.Fatalf("LintDir: %v", err)
	}
	wantMsg := "wall-clock read reachable from simulation entrypoint sl010.Run: " +
		"sl010.Run → sl010.advance → sl010.stamp: time.Now"
	assertMsg(t, diags, "SL010", 33, wantMsg)

	diags, err = r.LintDir(ModulePath+"/internal/sl012", filepath.Join("testdata", "sl012"))
	if err != nil {
		t.Fatalf("LintDir: %v", err)
	}
	wantMsg = "call to sl012.(*engine).grow from a fast-path file can allocate " +
		"(sl012.(*engine).grow → sl012.(*engine).reserve: make): " +
		"the zero-alloc contract extends to everything the fast path calls"
	assertMsg(t, diags, "SL012", 12, wantMsg)

	diags, err = r.LintDir(ModulePath+"/internal/sl014", filepath.Join("testdata", "sl014"))
	if err != nil {
		t.Fatalf("LintDir: %v", err)
	}
	wantMsg = "package-level state write reachable from shard worker sl014.(*shard).scatter: " +
		"shards run this concurrently, so shared globals break the deterministic merge: " +
		"sl014.(*shard).scatter → sl014.(*shard).tally → sl014.(*shard).count: " +
		"write to package-level var sl014.rounds"
	assertMsg(t, diags, "SL014", 20, wantMsg)
}

func assertMsg(t *testing.T, diags []Diagnostic, rule string, line int, want string) {
	t.Helper()
	for _, d := range diags {
		if d.Rule == rule && d.Pos.Line == line {
			if d.Msg != want {
				t.Errorf("%s at line %d:\n got %q\nwant %q", rule, line, d.Msg, want)
			}
			return
		}
	}
	t.Errorf("no %s diagnostic at line %d:\n%s", rule, line, render(diags))
}

// TestExplain exercises the -why chain explainer over the sl010
// fixture: the entrypoint explains its reachable facts, a clean helper
// reports none.
func TestExplain(t *testing.T) {
	r := NewRunner(moduleRoot(t))
	if _, err := r.LintDir(ModulePath+"/internal/core", filepath.Join("testdata", "sl010")); err != nil {
		t.Fatalf("LintDir: %v", err)
	}
	lines, err := r.Explain("SL010", "sl010.Run")
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	joined := strings.Join(lines, "\n")
	for _, frag := range []string{
		"sl010.Run → sl010.advance → sl010.stamp: time.Now",
		"sl010.Run → sl010.jitter: rand.Intn",
		"sl010.Run → sl010.tally: order-dependent call to cost inside range over map",
	} {
		if !strings.Contains(joined, frag) {
			t.Errorf("Explain output missing %q:\n%s", frag, joined)
		}
	}
	lines, err = r.Explain("SL010", "sl010.cost")
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if len(lines) != 2 || !strings.Contains(lines[1], "clean") {
		t.Errorf("Explain on a clean function = %q, want a clean line", lines)
	}
	if _, err := r.Explain("SL007", "sl010.Run"); err == nil {
		t.Error("Explain accepted a non-interprocedural rule")
	}
	if _, err := r.Explain("SL010", "noSuchFunc"); err == nil {
		t.Error("Explain matched a nonexistent function")
	}
}

// TestUnusedWaiverReported runs LintTree sweeps over the waiver
// fixtures: a well-formed directive that suppresses nothing is itself
// an SL000 finding, while the used waivers of the waiver fixture stay
// silent (its expected findings are the seeded malformed-directive
// ones, same as the LintDir case).
func TestUnusedWaiverReported(t *testing.T) {
	fixtures := filepath.Join(moduleRoot(t), "internal", "lint", "testdata")

	r := NewRunner(moduleRoot(t))
	diags, err := r.LintTree(filepath.Join(fixtures, "waiverunused"))
	if err != nil {
		t.Fatalf("LintTree: %v", err)
	}
	if len(diags) != 1 || diags[0].Rule != "SL000" || diags[0].Pos.Line != 8 ||
		!strings.Contains(diags[0].Msg, "unused") {
		t.Fatalf("want one SL000 unused-waiver finding at line 8, got:\n%s", render(diags))
	}

	r = NewRunner(moduleRoot(t))
	diags, err = r.LintTree(filepath.Join(fixtures, "waiver"))
	if err != nil {
		t.Fatalf("LintTree: %v", err)
	}
	for _, d := range diags {
		if strings.Contains(d.Msg, "unused") {
			t.Errorf("used waiver reported as unused: %s", d)
		}
	}
	if len(diags) != 4 {
		t.Errorf("waiver fixture sweep: got %d diagnostics, want 4:\n%s", len(diags), render(diags))
	}
}

// TestModuleIsLintClean runs every rule over the whole module — the
// same sweep as `go run ./cmd/simlint ./...` in CI — and requires zero
// findings. Any rule violation introduced into the simulator fails
// here first, with the exact file:line in the failure message.
func TestModuleIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the entire module; skipped in -short")
	}
	root := moduleRoot(t)
	r := NewRunner(root)
	diags, err := r.LintTree(root)
	if err != nil {
		t.Fatalf("LintTree: %v", err)
	}
	if len(diags) != 0 {
		t.Fatalf("repository has lint findings:\n%s", render(diags))
	}
}
