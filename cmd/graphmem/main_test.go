package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphmem/internal/cli/clitest"
	"graphmem/internal/graph"
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

// TestBadNumericFlagsExit2: a -frag or -aged outside [0,1], a -pressure
// that is NaN or infinite, or a -pr-iters below 1 is a flag error (exit
// 2 naming the flag), caught before any graph is generated, not a run
// that silently clamps or ignores it.
func TestBadNumericFlagsExit2(t *testing.T) {
	bin := clitest.Build(t, "graphmem/cmd/graphmem")
	for _, args := range [][]string{
		{"-frag", "1.5"},
		{"-frag", "-0.5"},
		{"-frag", "NaN"},
		{"-aged", "1.5"},
		{"-aged", "-1"},
		{"-aged", "NaN"},
		{"-pressure", "NaN"},
		{"-pressure", "+Inf"},
		{"-pressure", "-Inf"},
		{"-pr-iters", "0"},
		{"-pr-iters", "-3"},
	} {
		out, code := clitest.Run(t, bin, append([]string{"-scale", "test", "-policy", "thp"}, args...)...)
		if code != 2 || !strings.Contains(out, args[0]) || strings.Contains(out, "panic:") {
			t.Fatalf("graphmem %s: exit %d, want 2 and a message naming %s; output:\n%s",
				strings.Join(args, " "), code, args[0], out)
		}
	}
}

// TestEdgelessFileExits1: a valid graph file with one vertex and no
// edges is refused with exit 1 and the image's error, not a panic, for
// every app and under every policy kind.
func TestEdgelessFileExits1(t *testing.T) {
	bin := clitest.Build(t, "graphmem/cmd/graphmem")
	dir := t.TempDir()
	write := func(name string, weighted bool) string {
		g, err := graph.FromEdges(1, nil, weighted)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := graph.Write(f, g); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	plain, weighted := write("one.gmg", false), write("one-weighted.gmg", true)
	for _, policy := range []string{"4k", "thp", "selective", "auto"} {
		for _, app := range []string{"bfs", "pr", "cc", "bc", "sssp"} {
			file := plain
			if app == "sssp" {
				file = weighted
			}
			out, code := clitest.Run(t, bin, "-file", file, "-app", app, "-policy", policy)
			if code != 1 || !strings.Contains(out, "edges") || strings.Contains(out, "panic:") {
				t.Fatalf("graphmem -file %s -app %s -policy %s: exit %d, want 1 and the no-edges error; output:\n%s",
					filepath.Base(file), app, policy, code, out)
			}
		}
	}
}
