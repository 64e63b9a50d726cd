// Package lint implements simlint, the project's determinism linter.
//
// The simulator's central contract is that identical call sequences
// produce identical physical layouts and statistics — the paper's
// experiments are only reproducible if nothing in the simulation path
// consults wall-clock time, global random state, or Go's randomized map
// iteration order. simlint enforces that contract statically, plus two
// hygiene rules (cost constants live in internal/cost; library packages
// fail through check.Failf, never bare panic) and one concurrency rule
// (experiment-suite caches mutate only through the sched.Cache promise
// API, never as plain maps), and three performance-contract rules
// (files tagged //simlint:fastpath stay free of allocation risks, never
// dispatch a constant-stride access stream through the scalar path, and
// never walk a collected VA slice through scalar Access instead of the
// gather path).
//
// Each rule is a table entry with a stable ID (SL001…SL014) so tests
// can seed violations in testdata fixtures and assert exact
// diagnostics, and so waivers in code review can name the rule they
// waive. Test files are exempt from every rule: tests may time
// themselves, seed global rand, or panic freely.
//
// The implementation is stdlib-only (go/parser, go/types, go/build,
// go/importer) — no analysis framework dependency. Type information is
// required: the rules must distinguish `time.Now` the stdlib function
// from a local identifier that happens to be called "time", and a
// *rand.Rand method from a math/rand package-level function.
package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// ModulePath is the import-path root of the project this linter serves.
const ModulePath = "graphmem"

// Diagnostic is one finding, addressed by rule ID and source position.
type Diagnostic struct {
	Rule string
	Pos  token.Position
	Msg  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Msg)
}

// Rule is one table-driven check.
type Rule struct {
	ID   string
	Name string
	Doc  string

	// Applies reports whether the rule runs on the package with the
	// given import path. Nil means module-wide.
	Applies func(pkgPath string) bool

	Check func(p *Pass)
}

// Pass hands one type-checked package to a rule's Check.
type Pass struct {
	Fset  *token.FileSet
	Path  string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	rule   Rule
	diags  *[]Diagnostic
	runner *Runner
}

// Reportf records a finding at pos under the pass's rule ID.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Rule: p.rule.ID,
		Pos:  p.Fset.Position(pos),
		Msg:  fmt.Sprintf(format, args...),
	})
}

// Runner loads, type-checks and lints packages of the module rooted at
// ModuleRoot. It caches type-checked packages, so linting the whole
// tree type-checks each package (and each stdlib dependency) once.
type Runner struct {
	ModuleRoot string
	Rules      []Rule

	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*checked

	// gen counts successful package loads; the facts engine (facts.go)
	// caches its call graph against it and rebuilds only when new
	// packages have been type-checked since the last build.
	gen   int
	fe    *factsEngine
	feGen int

	// waivers and badWaivers index //simlint:ignore directives by
	// filename (waiver.go), populated at parse time so interprocedural
	// diagnostics pointing into dependency packages honor them too.
	waivers    map[string][]waiver
	badWaivers map[string][]badWaiver

	// reported dedupes interprocedural findings: SL010/SL012/SL014 may
	// derive the same finding from several entrypoints or passes.
	reported map[string]bool
}

type checked struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
	err   error
}

// NewRunner builds a runner over the module rooted at moduleRoot (the
// directory holding go.mod).
func NewRunner(moduleRoot string) *Runner {
	fset := token.NewFileSet()
	return &Runner{
		ModuleRoot: moduleRoot,
		Rules:      AllRules(),
		fset:       fset,
		// The "source" importer type-checks stdlib dependencies from
		// $GOROOT source — no export data or network required.
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       make(map[string]*checked),
		waivers:    make(map[string][]waiver),
		badWaivers: make(map[string][]badWaiver),
		reported:   make(map[string]bool),
	}
}

// Import implements types.Importer: module-internal paths are loaded
// recursively from ModuleRoot; everything else (stdlib) is delegated to
// the source importer. This chaining is what lets fixtures and real
// packages import graphmem/internal/check during type-checking.
func (r *Runner) Import(path string) (*types.Package, error) {
	if path == ModulePath || strings.HasPrefix(path, ModulePath+"/") {
		c := r.load(path, r.dirFor(path))
		return c.pkg, c.err
	}
	return r.std.Import(path)
}

func (r *Runner) dirFor(importPath string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(importPath, ModulePath), "/")
	return filepath.Join(r.ModuleRoot, filepath.FromSlash(rel))
}

// load parses and type-checks the package in dir under importPath,
// memoizing by import path. Only non-test files selected by the default
// build context are considered — matching what `go build` compiles, and
// making test files exempt from every rule.
func (r *Runner) load(importPath, dir string) *checked {
	if c, ok := r.pkgs[importPath]; ok {
		if c == nil {
			return &checked{err: fmt.Errorf("lint: import cycle through %s", importPath)}
		}
		return c
	}
	r.pkgs[importPath] = nil // cycle sentinel
	c := r.loadUncached(importPath, dir)
	r.pkgs[importPath] = c
	r.gen++ // invalidate the cached facts engine
	return c
}

func (r *Runner) loadUncached(importPath, dir string) *checked {
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return &checked{err: fmt.Errorf("lint: %s: %w", importPath, err)}
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		// The source is read here (not left to the parser) because the
		// waiver index needs the raw lines to tell trailing directives
		// from standalone ones.
		path := filepath.Join(dir, name)
		src, err := os.ReadFile(path)
		if err != nil {
			return &checked{err: fmt.Errorf("lint: %w", err)}
		}
		// ParseComments is needed for the file-level lint directives
		// (//simlint:fastpath consumed by SL007, //simlint:ignore
		// waivers).
		f, err := parser.ParseFile(r.fset, path, src,
			parser.SkipObjectResolution|parser.ParseComments)
		if err != nil {
			return &checked{err: fmt.Errorf("lint: %w", err)}
		}
		r.indexWaivers(f, src)
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	var firstErr error
	cfg := types.Config{
		Importer: r,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	pkg, err := cfg.Check(importPath, r.fset, files, info)
	if err == nil {
		err = firstErr
	}
	if err != nil {
		return &checked{err: fmt.Errorf("lint: typecheck %s: %w", importPath, err)}
	}
	return &checked{pkg: pkg, files: files, info: info}
}

// LintDir lints the package found in dir as if its import path were
// importPath (which decides which rules apply — testdata fixtures use
// this to impersonate internal/ packages).
func (r *Runner) LintDir(importPath, dir string) ([]Diagnostic, error) {
	c := r.load(importPath, dir)
	if c.err != nil {
		return nil, c.err
	}
	var diags []Diagnostic
	for _, rule := range r.Rules {
		if rule.Applies != nil && !rule.Applies(importPath) {
			continue
		}
		p := &Pass{
			Fset: r.fset, Path: importPath,
			Files: c.files, Pkg: c.pkg, Info: c.info,
			rule: rule, diags: &diags, runner: r,
		}
		rule.Check(p)
	}
	diags = r.applyWaivers(diags)
	sortDiagnostics(diags)
	return diags, nil
}

// reportOnce dedupes interprocedural findings that several passes (or
// several entrypoints) would otherwise derive independently.
func (r *Runner) reportOnce(key string) bool {
	if r.reported[key] {
		return false
	}
	r.reported[key] = true
	return true
}

// LoadTree parses and type-checks every package under root without
// linting, priming the runner's caches — the `-why` explainer uses it
// to build the facts engine over the whole module.
func (r *Runner) LoadTree(root string) error {
	dirs, err := packageDirs(root)
	if err != nil {
		return err
	}
	for _, dir := range dirs {
		rel, err := filepath.Rel(r.ModuleRoot, dir)
		if err != nil {
			return err
		}
		importPath := ModulePath
		if rel != "." {
			importPath = ModulePath + "/" + filepath.ToSlash(rel)
		}
		if c := r.load(importPath, dir); c.err != nil && !isNoGoErr(c.err) {
			return c.err
		}
	}
	return nil
}

// LintTree lints every package under root (a directory inside the
// module), skipping testdata, vendor, and hidden directories. Hard
// errors (unparsable or untypeable packages) are returned alongside any
// diagnostics gathered before the failure.
//
// The whole tree is loaded before any rule runs: the interprocedural
// rules (SL010–SL013) consult a module-wide facts engine, and building
// it over a partially loaded module would make their findings depend on
// directory sort order — a package linted early would miss call-graph
// edges and global writes contributed by packages outside its import
// cone. After the sweep, waivers that suppressed nothing are reported
// as SL000 findings so stale directives cannot linger.
func (r *Runner) LintTree(root string) ([]Diagnostic, error) {
	if err := r.LoadTree(root); err != nil {
		return nil, err
	}
	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	linted := make(map[string]bool)
	for _, dir := range dirs {
		rel, err := filepath.Rel(r.ModuleRoot, dir)
		if err != nil {
			return diags, err
		}
		importPath := ModulePath
		if rel != "." {
			importPath = ModulePath + "/" + filepath.ToSlash(rel)
		}
		ds, err := r.LintDir(importPath, dir)
		if err != nil {
			if isNoGoErr(err) {
				continue // directory without buildable Go files
			}
			return diags, err
		}
		diags = append(diags, ds...)
		if c := r.pkgs[importPath]; c != nil && c.err == nil {
			for _, f := range c.files {
				linted[r.fset.Position(f.Pos()).Filename] = true
			}
		}
	}
	diags = append(diags, r.unusedWaiverDiags(linted)...)
	sortDiagnostics(diags)
	return diags, nil
}

// isNoGoErr reports whether err is (or wraps) build.NoGoError — a
// directory with no buildable Go files, which tree walks skip. Load
// errors are wrapped with %w, so errors.As sees through the chain.
func isNoGoErr(err error) bool {
	var ng *build.NoGoError
	return errors.As(err, &ng)
}

// packageDirs walks root collecting directories that contain at least
// one .go file, skipping testdata, vendor, results, and hidden dirs.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	var walk func(dir string) error
	walk = func(dir string) error {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		hasGo := false
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() {
				if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
					name == "testdata" || name == "vendor" || name == "results" {
					continue
				}
				if err := walk(filepath.Join(dir, name)); err != nil {
					return err
				}
				continue
			}
			if strings.HasSuffix(name, ".go") {
				hasGo = true
			}
		}
		if hasGo {
			dirs = append(dirs, dir)
		}
		return nil
	}
	if err := walk(root); err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
}
