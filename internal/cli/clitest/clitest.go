// Package clitest builds the repository's commands and runs them, so a
// command's smoke test drives its real main end to end: flag parsing,
// exit status and printed report.
package clitest

import (
	"errors"
	"os/exec"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// Build compiles the command at import path pkg (for example
// "graphmem/cmd/graphmem") into t's temporary directory and returns the
// binary's path.
func Build(t testing.TB, pkg string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), path.Base(pkg))
	if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// Run executes bin with args and returns its combined stdout and stderr
// and its exit status.
func Run(t testing.TB, bin string, args ...string) (string, int) {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return string(out), exit.ExitCode()
	}
	if err != nil {
		t.Fatalf("%s: %v", filepath.Base(bin), err)
	}
	return string(out), 0
}

// Expect runs bin with args and fails t unless it exits 0 and prints
// want as one whole line.
func Expect(t testing.TB, want, bin string, args ...string) {
	t.Helper()
	out, code := Run(t, bin, args...)
	if code != 0 || !HasLine(out, want) {
		t.Fatalf("%s %s: exit %d, want 0 and the line %q; output:\n%s",
			filepath.Base(bin), strings.Join(args, " "), code, want, out)
	}
}

// HasLine reports whether out holds want as one whole line.
func HasLine(out, want string) bool {
	return slices.Contains(strings.Split(out, "\n"), want)
}
