package main

import (
	"fmt"
	"regexp"
	"strconv"
	"testing"

	"graphmem/internal/cli/clitest"
)

// TestFootprintReadsLiveHeap runs -footprint at bench scale. The host
// heap it reports is read while the staged node is still reachable, so
// it holds at least the simulator footprint the table totals.
func TestFootprintReadsLiveHeap(t *testing.T) {
	bin := clitest.Build(t, "graphmem/cmd/expdriver")
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
}
