package core

import (
	"os"
	"testing"
)

// TestHatchDisabled covers the consolidated escape-hatch helper: each
// hatch reads its own GRAPHMEM_NO_<name> variable, any non-empty value
// (including "0") opens it, the empty string does not, and the reads
// happen per call so one process can host both sides of an
// equivalence test.
func TestHatchDisabled(t *testing.T) {
	for _, h := range AllHatches {
		key := "GRAPHMEM_NO_" + string(h)
		if os.Getenv(key) != "" {
			t.Fatalf("%s set in the test environment", key)
		}
		if HatchDisabled(h) {
			t.Fatalf("HatchDisabled(%s) with %s unset", h, key)
		}
		t.Setenv(key, "1")
		if !HatchDisabled(h) {
			t.Fatalf("HatchDisabled(%s) false with %s=1", h, key)
		}
		// Any non-empty value opens the hatch — the historical
		// semantics of the three copy-pasted os.Getenv checks this
		// helper replaced.
		t.Setenv(key, "0")
		if !HatchDisabled(h) {
			t.Fatalf("HatchDisabled(%s) false with %s=0 (non-empty means open)", h, key)
		}
		t.Setenv(key, "")
		if HatchDisabled(h) {
			t.Fatalf("HatchDisabled(%s) true with %s empty", h, key)
		}
	}
}

// TestHatchIndependence: opening one hatch must not open any other.
func TestHatchIndependence(t *testing.T) {
	t.Setenv("GRAPHMEM_NO_SNAPSHOT", "1")
	for _, h := range AllHatches {
		if h != HatchSnapshot && HatchDisabled(h) {
			t.Fatalf("GRAPHMEM_NO_SNAPSHOT leaked into hatch %s", h)
		}
	}
	if !SnapshotsDisabled() {
		t.Fatal("SnapshotsDisabled no longer routes through the snapshot hatch")
	}
}
