//go:build !race

package gen

import "testing"

// TestPaperFullGolden pins the benchmark's paper-full graph (2^20
// vertices, 2^24 edges, seed 1). Generating it takes seconds, so -short
// skips it, and race builds leave it out.
func TestPaperFullGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("generates 2^24 edges")
	}
	const want = "64319f4c5a90be60e13044032c90bd68fe5e925ca32ce70de185b26ec0b273c3"
	if got := digest(t, Kronecker(20, 16, false, 0, 1)); got != want {
		t.Errorf("Kronecker(20, 16) digest %s, want %s", got, want)
	}
}
