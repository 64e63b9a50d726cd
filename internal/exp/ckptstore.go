package exp

import (
	"fmt"
	"os"
	"path/filepath"

	"graphmem/internal/ckpt"
	"graphmem/internal/core"
)

// The persistent checkpoint store (DESIGN.md §5e): when Suite.CkptDir
// is set, each cell's staged load phase is saved as a ckpt container
// on disk, content-addressed by the cell key (runCfg.key). A campaign
// in a fresh process then forks loaded machines instead of replaying
// environment staging and init faulting; CI's reload gate proves the
// two are byte-identical and ≥3× faster at bench scale.
//
// The store is an optimization with escape hatches on both sides: it is
// inert without -ckpt-dir, disabled alongside GRAPHMEM_NO_SNAPSHOT
// (no resident machine to save or load), and every store failure —
// missing file, stale format version, corrupt or truncated image,
// mismatched key — degrades to staging from the spec, never to an
// error. Failures other than a store miss are logged.

// storeEnabled reports whether the persistent store participates in
// checkpoint requests.
func (s *Suite) storeEnabled() bool {
	return s.CkptDir != "" && !core.SnapshotsDisabled()
}

// storeLog records a store event on the suite's progress stream.
func (s *Suite) storeLog(format string, args ...any) {
	if s.Log == nil {
		return
	}
	s.logMu.Lock()
	fmt.Fprintf(s.Log, "  ckpt "+format+"\n", args...)
	s.logMu.Unlock()
}

// loadCheckpoint tries the store for key's staged state. It returns
// nil — stage from the spec — on any miss or failure.
func (s *Suite) loadCheckpoint(key string, spec core.RunSpec) *core.Checkpoint {
	if !s.storeEnabled() {
		return nil
	}
	path := ckpt.Path(s.CkptDir, key)
	f, err := os.Open(path)
	if err != nil {
		return nil // store miss
	}
	defer f.Close()
	cp, err := core.LoadCheckpoint(spec, key, f)
	if err != nil {
		// Stale version, corruption, or a hash collision with a
		// different key: restage (and let the save below overwrite).
		s.storeLog("load %s failed, restaging: %v", filepath.Base(path), err)
		return nil
	}
	return cp
}

// saveCheckpoint writes a freshly staged checkpoint to the store. The
// image is written to a temp file and renamed so concurrent campaigns
// sharing one store directory only ever observe complete containers.
func (s *Suite) saveCheckpoint(key string, cp *core.Checkpoint) {
	if !s.storeEnabled() {
		return
	}
	path := ckpt.Path(s.CkptDir, key)
	tmp, err := os.CreateTemp(s.CkptDir, ".ckpt-*")
	if err != nil {
		s.storeLog("save %s failed: %v", filepath.Base(path), err)
		return
	}
	_, err = cp.Save(tmp, key)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		s.storeLog("save %s failed: %v", filepath.Base(path), err)
	}
}
