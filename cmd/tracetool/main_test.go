package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphmem/internal/cli/clitest"
)

// pinnedTraces are the test-scale wiki trace of every app: the SHA-256
// of the file tracetool record writes and the access count it prints,
// recorded with go1.24.0.
var pinnedTraces = []struct {
	app, sha string
	n        int
}{
	{"bfs", "fd4d89bd31d8b46a9ea11a30ad120d95da4aeeec87efc9c78313e4b50f655413", 61648},
	{"sssp", "fd36a5457c8b7f6800e1680b56be3b1f6030bf048a5dc11e0240a720bf8ca3c5", 109737},
	{"pr", "5735b12154ed9cfbd03719a09000429c081bd0ddef93c7c448f7554f6296ec85", 598610},
	{"cc", "5b7de8d62ebf3863750a2d9ee0a3e6defec6f39834d085455a02d9fb2d03bfbe", 122254},
	{"bc", "4a7025fee234c14a5102603ae72ac6825ce763da3d91e9994922ff33c48bc132", 575772},
}

// TestRecordThenAnalyze records the test-scale wiki trace of every app
// with the built command, at GOMAXPROCS 1 and 2 (from 2 on a cache
// goroutine runs beside the traced kernel), requires each file's bytes
// and printed count to be the pinned ones, then analyzes the BFS trace.
func TestRecordThenAnalyze(t *testing.T) {
	bin := clitest.Build(t, "graphmem/cmd/tracetool")
	dir := t.TempDir()
	for _, procs := range []string{"1", "2"} {
		t.Setenv("GOMAXPROCS", procs)
		for _, p := range pinnedTraces {
			file := filepath.Join(dir, p.app+".gmt")
			clitest.Expect(t, fmt.Sprintf("recorded %d kernel-phase accesses to %s", p.n, file),
				bin, "record", "-app", p.app, "-dataset", "wiki", "-scale", "test", "-o", file)
			b, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != p.sha {
				t.Errorf("GOMAXPROCS=%s: %s trace has SHA-256 %x, want %s", procs, p.app, sum, p.sha)
			}
		}
	}
	clitest.Expect(t, "trace: 61648 accesses", bin, "analyze", filepath.Join(dir, "bfs.gmt"))
}

// TestBadFlagsExit2: an unknown -app, -dataset or -scale, a missing -o,
// and analyze without exactly one file are usage errors: exit 2 with a
// message naming the problem, before any graph is generated (each case
// but the unknown scale asks for the full-scale graph, which a test
// could not wait for).
func TestBadFlagsExit2(t *testing.T) {
	bin := clitest.Build(t, "graphmem/cmd/tracetool")
	out := filepath.Join(t.TempDir(), "x.gmt")
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"record", "-app", "nope", "-dataset", "kr25", "-scale", "full", "-o", out}, `unknown app "nope"`},
		{[]string{"record", "-app", "bfs", "-dataset", "nope", "-scale", "full", "-o", out}, `unknown dataset "nope"`},
		{[]string{"record", "-app", "bfs", "-dataset", "kr25", "-scale", "huge", "-o", out}, `unknown scale "huge"`},
		{[]string{"record", "-app", "bfs", "-dataset", "kr25", "-scale", "full"}, "record: -o is required"},
		{[]string{"analyze"}, "analyze: exactly one trace file expected"},
		{[]string{"analyze", out, out}, "analyze: exactly one trace file expected"},
	} {
		got, code := clitest.Run(t, bin, c.args...)
		if code != 2 || !strings.Contains(got, c.want) {
			t.Errorf("tracetool %s: exit %d, want 2 and %q; output:\n%s", strings.Join(c.args, " "), code, c.want, got)
		}
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("a refused record left %s behind (stat: %v)", out, err)
	}
	got, code := clitest.Run(t, bin)
	if code != 2 || !strings.Contains(got, "-app <bfs|sssp|pr|cc|bc>") {
		t.Errorf("tracetool with no command: exit %d, want 2 and a usage line listing every app; output:\n%s", code, got)
	}
}

// TestRecordReportsWriteError: a trace that cannot be written is a run
// error (exit 1 naming the cause), not a silent success.
func TestRecordReportsWriteError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	bin := clitest.Build(t, "graphmem/cmd/tracetool")
	got, code := clitest.Run(t, bin, "record", "-app", "bfs", "-dataset", "wiki", "-scale", "test", "-o", "/dev/full")
	if code != 1 || !strings.Contains(got, "no space left on device") {
		t.Errorf("tracetool record -o /dev/full: exit %d, want 1 and the write error; output:\n%s", code, got)
	}
}
