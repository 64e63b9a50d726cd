package main

import (
	"strings"
	"testing"

	"graphmem/internal/cli/clitest"
)

// TestWikiBFS runs the built command on the test-scale wiki graph.
func TestWikiBFS(t *testing.T) {
	bin := clitest.Build(t, "graphmem/cmd/graphmem")
	clitest.Expect(t, "result: 2862 vertices reached",
		bin, "-app", "bfs", "-dataset", "wiki", "-scale", "test")
}

// TestBadSelExits2: a -sel that selective, hugetlb or auto cannot use is
// a flag error (exit 2 naming -sel), not a panic from core. A Go panic
// exits 2 as well, so the output must not show one.
func TestBadSelExits2(t *testing.T) {
	bin := clitest.Build(t, "graphmem/cmd/graphmem")
	for _, args := range [][]string{
		{"-policy", "selective", "-sel", "2"},
		{"-policy", "selective", "-sel", "0"},
		{"-policy", "selective", "-sel", "-1"},
		{"-policy", "hugetlb", "-sel", "2"},
		{"-policy", "hugetlb", "-sel", "NaN"},
		{"-policy", "auto", "-sel", "NaN"},
		{"-policy", "auto", "-sel", "-1"},
		{"-policy", "auto", "-sel", "+Inf"},
	} {
		out, code := clitest.Run(t, bin, append([]string{"-scale", "test"}, args...)...)
		if code != 2 || !strings.Contains(out, "-sel") || strings.Contains(out, "panic:") {
			t.Fatalf("graphmem %s: exit %d, want 2 and a message naming -sel; output:\n%s",
				strings.Join(args, " "), code, out)
		}
	}
}
