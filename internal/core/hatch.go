package core

import (
	"os"

	"graphmem/internal/machine"
)

// Hatch names one of the byte-identity escape hatches: subsystems whose
// optimized path is observationally invisible by construction (bulk and
// gather access charging, checkpoint and shard forking) each carry a
// GRAPHMEM_NO_<hatch>=1 environment variable that forces the reference
// path instead. CI diffs campaign output with each hatch open against
// the optimized run byte for byte (scripts/ci.sh steps 9–12) — the
// hatches exist only to prove equivalence.
type Hatch string

const (
	// HatchBulk gates machine.AccessRun's coalesced charging
	// (GRAPHMEM_NO_BULK): open, every run degrades to per-access
	// dispatch.
	HatchBulk Hatch = "BULK"
	// HatchGather gates machine.AccessGather's batched charging
	// (GRAPHMEM_NO_GATHER): open, every batch degrades to per-access
	// dispatch.
	HatchGather Hatch = "GATHER"
	// HatchSnapshot gates the checkpoint/fork layer (GRAPHMEM_NO_SNAPSHOT):
	// open, every fork — a checkpoint's and the sharded engine's shard
	// bring-up alike — replays its load phase monolithically.
	HatchSnapshot Hatch = "SNAPSHOT"
)

// AllHatches lists the escape hatches, in subsystem order.
var AllHatches = []Hatch{HatchBulk, HatchGather, HatchSnapshot}

// HatchDisabled reports whether the hatch's environment variable
// (GRAPHMEM_NO_<hatch>) is set non-empty — the optimized path is then
// disabled in favour of the reference path. Read per call so one
// process can host both sides of an equivalence test.
func HatchDisabled(h Hatch) bool {
	return os.Getenv("GRAPHMEM_NO_"+string(h)) != ""
}

// applyAccessHatches routes the machine's access engines through the
// bulk and gather hatches. machine.New enables both by default; the
// hatch check lives here so every env read shares one helper.
func applyAccessHatches(m *machine.Machine) {
	m.SetBulk(!HatchDisabled(HatchBulk))
	m.SetGather(!HatchDisabled(HatchGather))
}
