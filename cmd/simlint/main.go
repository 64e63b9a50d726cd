// Command simlint runs the project's determinism lint rules (SL001…
// SL014, see internal/lint) over the module.
//
// Usage:
//
//	go run ./cmd/simlint ./...        # whole module (CI invocation)
//	go run ./cmd/simlint ./internal/memsys
//	go run ./cmd/simlint -rules       # list the rule table
//	go run ./cmd/simlint -json ./...  # one JSON diagnostic per line
//	go run ./cmd/simlint -why SL010:core.Run
//
// A path ending in /... is linted recursively; otherwise the single
// package in the directory is linted. -why explains an interprocedural
// rule's facts for every loaded function matching the pattern, printing
// the call chain to each reachable fact. Exit status: 0 clean, 1
// findings, 2 operational error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"graphmem/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonDiagnostic fixes the -json field order; the file path is
// module-root-relative with forward slashes so output is stable across
// checkouts.
type jsonDiagnostic struct {
	Rule string `json:"rule"`
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Msg  string `json:"msg"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listRules := fs.Bool("rules", false, "print the rule table and exit")
	verbose := fs.Bool("v", false, "print each package as it is linted")
	jsonOut := fs.Bool("json", false, "emit one JSON object per diagnostic")
	why := fs.String("why", "", "explain an interprocedural rule for a function: SLxxx:func")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *listRules {
		for _, r := range lint.AllRules() {
			fmt.Fprintf(stdout, "%s %-14s %s\n", r.ID, r.Name, r.Doc)
		}
		return 0
	}

	target := "./..."
	if fs.NArg() > 0 {
		target = fs.Arg(0)
	}
	recursive := false
	if strings.HasSuffix(target, "...") {
		recursive = true
		target = strings.TrimSuffix(strings.TrimSuffix(target, "..."), "/")
		if target == "" || target == "." {
			target = "."
		}
	}
	dir, err := filepath.Abs(target)
	if err != nil {
		return fatal(stderr, err)
	}
	root, err := findModuleRoot(dir)
	if err != nil {
		return fatal(stderr, err)
	}
	r := lint.NewRunner(root)

	if *why != "" {
		return explain(r, root, *why, stdout, stderr)
	}

	var diags []lint.Diagnostic
	if recursive {
		diags, err = r.LintTree(dir)
	} else {
		rel, rerr := filepath.Rel(root, dir)
		if rerr != nil {
			return fatal(stderr, rerr)
		}
		importPath := lint.ModulePath
		if rel != "." {
			importPath = lint.ModulePath + "/" + filepath.ToSlash(rel)
		}
		if *verbose {
			fmt.Fprintf(stderr, "simlint: %s\n", importPath)
		}
		diags, err = r.LintDir(importPath, dir)
	}
	if err != nil {
		return fatal(stderr, err)
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		for _, d := range diags {
			jd := jsonDiagnostic{
				Rule: d.Rule, File: rootRel(root, d.Pos.Filename),
				Line: d.Pos.Line, Col: d.Pos.Column, Msg: d.Msg,
			}
			if err := enc.Encode(jd); err != nil {
				return fatal(stderr, err)
			}
		}
	} else {
		cwd, _ := os.Getwd()
		for _, d := range diags {
			if cwd != "" {
				if rel, rerr := filepath.Rel(cwd, d.Pos.Filename); rerr == nil && !strings.HasPrefix(rel, "..") {
					d.Pos.Filename = rel
				}
			}
			fmt.Fprintln(stdout, d)
		}
	}
	if *verbose {
		fmt.Fprintf(stderr, "simlint: %d finding(s)\n", len(diags))
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// explain drives `-why SLxxx:func`: load (type-check) the whole module
// so the facts engine sees every call chain, then render the chains.
func explain(r *lint.Runner, root, query string, stdout, stderr io.Writer) int {
	ruleID, pattern, ok := strings.Cut(query, ":")
	if !ok || pattern == "" {
		return fatal(stderr, fmt.Errorf("-why wants SLxxx:func, e.g. -why SL010:core.Run"))
	}
	if err := r.LoadTree(root); err != nil {
		return fatal(stderr, err)
	}
	lines, err := r.Explain(ruleID, pattern)
	if err != nil {
		return fatal(stderr, err)
	}
	for _, line := range lines {
		fmt.Fprintln(stdout, line)
	}
	return 0
}

// rootRel renders filename relative to the module root, with forward
// slashes, falling back to the absolute path outside the module.
func rootRel(root, filename string) string {
	rel, err := filepath.Rel(root, filename)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(filename)
	}
	return filepath.ToSlash(rel)
}

// findModuleRoot walks up from dir to the directory containing go.mod.
func findModuleRoot(dir string) (string, error) {
	for d := dir; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("simlint: no go.mod above %s", dir)
		}
		d = parent
	}
}

func fatal(w io.Writer, err error) int {
	fmt.Fprintln(w, "simlint:", err)
	return 2
}
