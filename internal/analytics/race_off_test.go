//go:build !race

package analytics

// raceEnabled mirrors whether the race detector is compiled into the
// test binary. See race_on_test.go.
const raceEnabled = false
