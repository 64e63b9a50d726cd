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

// TestBadCoverageExits2 requires advisor, given no budget, to reject a
// -coverage outside (0,1] with exit 2 and a message naming the flag.
// The default -scale full is left in place: the check must come before
// the graph is generated.
func TestBadCoverageExits2(t *testing.T) {
	bin := clitest.Build(t, "graphmem/cmd/advisor")
	for _, c := range []string{"NaN", "+Inf", "0", "1.5", "-0.5"} {
		out, code := clitest.Run(t, bin, "-coverage", c)
		want := "advisor: -coverage " + c + " is not in (0,1]"
		if c == "0" {
			want = "advisor: provide -budget-mb or -coverage"
		}
		if code != 2 || !clitest.HasLine(out, want) {
			t.Errorf("advisor -coverage %s: exit %d, want 2 and %q; output:\n%s", c, code, want, out)
		}
	}
	clitest.Expect(t, "plan for 50% access coverage:", bin, "-dataset", "wiki", "-scale", "test", "-coverage", "0.5")
}

// TestBadBudgetExits2 requires advisor to reject a -budget-mb whose
// byte count overflows 64 bits with exit 2 and a message naming the
// flag, before the default full-scale graph is generated; the largest
// budget that fits still plans.
func TestBadBudgetExits2(t *testing.T) {
	bin := clitest.Build(t, "graphmem/cmd/advisor")
	for _, b := range []string{"17592186044416", "9223372036854775807"} {
		out, code := clitest.Run(t, bin, "-budget-mb", b)
		want := "advisor: -budget-mb " + b + " overflows a byte count"
		if code != 2 || !clitest.HasLine(out, want) {
			t.Errorf("advisor -budget-mb %s: exit %d, want 2 and %q; output:\n%s", b, code, want, out)
		}
	}
	clitest.Expect(t, "  regions: 1 of 1 (2.0MB of huge pages)", bin, "-dataset", "wiki", "-scale", "test", "-budget-mb", "17592186044415")
}
