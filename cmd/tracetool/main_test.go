package main

import (
	"path/filepath"
	"testing"

	"graphmem/internal/cli/clitest"
)

// TestRecordThenAnalyze records a test-scale wiki BFS trace with the
// built command, then analyzes the file it wrote.
func TestRecordThenAnalyze(t *testing.T) {
	bin := clitest.Build(t, "graphmem/cmd/tracetool")
	trace := filepath.Join(t.TempDir(), "bfs.gmt")
	clitest.Expect(t, "recorded 61648 kernel-phase accesses to "+trace,
		bin, "record", "-app", "bfs", "-dataset", "wiki", "-scale", "test", "-o", trace)
	clitest.Expect(t, "trace: 61648 accesses", bin, "analyze", trace)
}
