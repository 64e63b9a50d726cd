package main

import (
	"path/filepath"
	"testing"

	"graphmem/internal/cli/clitest"
)

// TestGenInfoReorderRun writes a test-scale wiki graph with the built
// command, inspects it, DBG-reorders it, and runs graphmem on the
// reordered file.
func TestGenInfoReorderRun(t *testing.T) {
	bin := clitest.Build(t, "graphmem/cmd/gengraph")
	dir := t.TempDir()
	orig, dbg := filepath.Join(dir, "wiki.gmg"), filepath.Join(dir, "wiki-dbg.gmg")
	if out, code := clitest.Run(t, bin, "gen", "-dataset", "wiki", "-scale", "test", "-o", orig); code != 0 {
		t.Fatalf("gengraph gen: exit %d; output:\n%s", code, out)
	}
	clitest.Expect(t, "vertices:   3000", bin, "info", orig)
	clitest.Expect(t, "reordered with dbg: 9000 vertex + 48000 edge traversal elements",
		bin, "reorder", "-method", "dbg", "-o", dbg, orig)
	graphmem := clitest.Build(t, "graphmem/cmd/graphmem")
	clitest.Expect(t, "result: 2862 vertices reached", graphmem, "-file", dbg, "-app", "bfs")
}
