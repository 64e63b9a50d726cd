package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestJSONOutput pins the -json mode against a golden file: one object
// per line, stable field order, module-root-relative slash paths.
func TestJSONOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-json", filepath.Join("..", "..", "internal", "lint", "testdata", "sl001")}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (findings); stderr:\n%s", code, stderr.String())
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "sl001.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := stdout.String(), string(golden); got != want {
		t.Errorf("-json output mismatch:\n got: %s\nwant: %s", got, want)
	}
}

// TestCleanDirExitsZero lints the clean fixture: no output, status 0.
func TestCleanDirExitsZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{filepath.Join("..", "..", "internal", "lint", "testdata", "clean")}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0; stdout:\n%s stderr:\n%s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("clean lint produced output:\n%s", stdout.String())
	}
}

// TestRulesListing checks the table includes the interprocedural rules.
func TestRulesListing(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-rules"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	for _, id := range []string{"SL000", "SL001", "SL010", "SL011", "SL012", "SL013", "SL014"} {
		if !strings.Contains(stdout.String(), id) {
			t.Errorf("-rules output missing %s", id)
		}
	}
	if strings.Contains(stdout.String(), "SL015") {
		t.Error("-rules output still lists SL015, which SL013 absorbed")
	}
}

// TestWhyBadQuery rejects malformed -why queries with status 2 before
// doing any expensive loading.
func TestWhyBadQuery(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-why", "bogus"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "SLxxx:func") {
		t.Errorf("stderr missing usage hint:\n%s", stderr.String())
	}
}

// TestWhyExplainsChain runs the full explainer over the module: the
// chain for SL012 facts of the machine's event dispatcher must name an
// allocation source.
func TestWhyExplainsChain(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the entire module; skipped in -short")
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-why", "SL012:(*Machine).runEvents", filepath.Join("..", "..")}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "machine.(*Machine).runEvents") || !strings.Contains(out, "allocation:") {
		t.Errorf("-why output missing the allocation chain:\n%s", out)
	}
}
