package main

import (
	"testing"

	"graphmem/internal/cli/clitest"
)

// TestWikiBFS runs the built command on the test-scale wiki graph.
func TestWikiBFS(t *testing.T) {
	bin := clitest.Build(t, "graphmem/cmd/graphmem")
	clitest.Expect(t, "result: 2862 vertices reached",
		bin, "-app", "bfs", "-dataset", "wiki", "-scale", "test")
}
