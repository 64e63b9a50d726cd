package main

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"graphmem/internal/cli/clitest"
)

// TestFootprintReadsLiveHeap runs -footprint at bench scale, with the
// snapshot hatch closed and open. The host heap it reports is read
// while the node it reports — staged, or replayed when the hatch is
// open — is still reachable, so it holds at least the simulator
// footprint the table totals.
func TestFootprintReadsLiveHeap(t *testing.T) {
	bin := clitest.Build(t, "graphmem/cmd/expdriver")
	for _, hatch := range []string{"", "1"} {
		t.Run("GRAPHMEM_NO_SNAPSHOT="+hatch, func(t *testing.T) {
			t.Setenv("GRAPHMEM_NO_SNAPSHOT", hatch)
			out, code := clitest.Run(t, bin, "-footprint", "-scale", "bench")
			total := regexp.MustCompile(`(?m)^footprint_total_bytes=(\d+) `).FindStringSubmatch(out)
			inUse := regexp.MustCompile(`(?m)^host heap: ([0-9.]+) MiB in use`).FindStringSubmatch(out)
			if code != 0 || total == nil || inUse == nil {
				t.Fatalf("expdriver -footprint: exit %d, want 0, a footprint total and a host heap line; output:\n%s", code, out)
			}
			want, _ := strconv.ParseUint(total[1], 10, 64)
			mib, _ := strconv.ParseFloat(inUse[1], 64)
			if got := mib * (1 << 20); got < float64(want) {
				t.Fatalf("host heap in use %s MiB is below the %s MiB footprint of the node it was read for; output:\n%s",
					inUse[1], fmt.Sprintf("%.2f", float64(want)/(1<<20)), out)
			}
		})
	}
}

// TestBadFlagsExit2: a negative -j or a -pr-iters below 1 is rejected
// before anything runs, with exit status 2, as an unknown -scale is.
func TestBadFlagsExit2(t *testing.T) {
	bin := clitest.Build(t, "graphmem/cmd/expdriver")
	for _, c := range []struct{ flag, value, want string }{
		{"-scale", "nope", `unknown scale "nope"`},
		{"-j", "-3", "-j -3"},
		{"-pr-iters", "0", "-pr-iters 0"},
		{"-pr-iters", "-2", "-pr-iters -2"},
	} {
		out, code := clitest.Run(t, bin, "-scale", "test", "-exp", "fig1", c.flag, c.value)
		if code != 2 || !strings.Contains(out, c.want) {
			t.Fatalf("expdriver %s %s: exit %d, want 2 and %q; output:\n%s", c.flag, c.value, code, c.want, out)
		}
	}
}
