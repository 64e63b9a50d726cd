//go:build race

package analytics

// raceEnabled mirrors whether the race detector is compiled into the
// test binary. The stream oracle's promoting configurations simulate
// millions of accesses per kernel on machines that share nothing with
// the replay handoff the detector watches, so under it they run on the
// test-scale graph instead.
const raceEnabled = true
