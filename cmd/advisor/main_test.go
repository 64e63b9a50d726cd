package main

import (
	"testing"

	"graphmem/internal/cli/clitest"
)

// TestBudgetPlan runs the built command on the test-scale wiki graph
// with a huge page budget, and without any target, which it must
// refuse.
func TestBudgetPlan(t *testing.T) {
	bin := clitest.Build(t, "graphmem/cmd/advisor")
	graph := []string{"-dataset", "wiki", "-scale", "test"}
	clitest.Expect(t, "plan for a 2MB huge page budget:", bin, append(graph, "-budget-mb", "2")...)

	out, code := clitest.Run(t, bin, graph...)
	if want := "advisor: provide -budget-mb or -coverage"; code == 0 || !clitest.HasLine(out, want) {
		t.Fatalf("advisor without a target: exit %d, want non-zero and the line %q; output:\n%s", code, want, out)
	}
}
