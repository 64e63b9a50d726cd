package core

import (
	"fmt"
	"io"

	"graphmem/internal/analytics"
	"graphmem/internal/ckpt"
	"graphmem/internal/machine"
	"graphmem/internal/memsys"
)

// This file is the persistent half of the snapshot layer (DESIGN.md
// §5e): a Checkpoint's frozen machine can be written to a ckpt
// container and spliced back under a freshly staged spec in another
// process. The split follows the prepared struct: everything stage()
// derives is pure recomputation from the spec (graph, cuts, sizes,
// preprocessing cycles) and is NOT serialized — only the machine and
// its image, the two things that cost a load-phase replay, go to disk.
// Decode therefore cannot drift from prepare: the spec side is the same
// code path either way, and the machine side is cross-checked against
// it before the checkpoint is handed out.

// encode writes the prepared run's machine half through walkPair. The
// spec half — the graph, partition cuts, working-set and node sizes,
// preprocessing cycles — is stage()'s deterministic output and is
// recomputed from the spec on load rather than stored.
func (p *prepared) encode(e *ckpt.Encoder) {
	if len(p.supply) != 0 {
		// Supply sampling registers a ticker, so such specs are not
		// SnapshotSafe and never reach Prepare, let alone Save.
		e.Failf("core: prepared run carries %d supply samples; sampled specs are not checkpointable", len(p.supply))
		return
	}
	walkPair(e.Walker(), &p.m, &p.img, p.g)
}

// Save writes the checkpoint's frozen post-init machine state to w as a
// versioned, checksummed ckpt container under the given key (the
// staging identity, which LoadCheckpoint must be given back). It
// returns the container size in bytes.
func (cp *Checkpoint) Save(w io.Writer, key string) (int64, error) {
	return ckpt.Save(w, key, cp.p.encode)
}

// LoadCheckpoint reconstructs a Checkpoint saved under key from r,
// splicing the serialized machine under a freshly staged spec. The spec
// must be the one the checkpoint was prepared from — the caller
// guarantees that by keying containers on the staging identity, and
// LoadCheckpoint cross-checks the machine's geometry and cost model
// against the spec so a mismatched pairing fails loudly instead of
// producing plausible wrong numbers. The loaded checkpoint's forks are
// byte-identical to the saving process's: decoding walks exactly the
// fields encoding wrote, and everything not serialized is recomputed
// through the same stage() path Prepare uses (MODEL.md §7).
func LoadCheckpoint(spec RunSpec, key string, r io.Reader) (*Checkpoint, error) {
	if !SnapshotSafe(spec) {
		return nil, fmt.Errorf("core: spec registers machine tickers (churn or supply sampling); it cannot have been checkpointed")
	}
	d, err := ckpt.Load(r, key)
	if err != nil {
		return nil, err
	}
	p, err := stage(spec)
	if err != nil {
		return nil, err
	}
	var m *machine.Machine
	var img *analytics.Image
	walkPair(d.Walker(), &m, &img, p.g)
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("core: checkpoint %s: %w", key, err)
	}
	if m.Model != *p.spec.Cost {
		return nil, fmt.Errorf("core: checkpoint %s was saved under a different cost model", key)
	}
	if got := m.Mem.TotalPages() * memsys.PageSize; got != p.memBytes {
		return nil, fmt.Errorf("core: checkpoint %s holds a %d-byte node, spec stages %d bytes", key, got, p.memBytes)
	}
	if m.Space.SimPageTables != p.spec.SimulatePageTables {
		return nil, fmt.Errorf("core: checkpoint %s disagrees with the spec on page-table simulation", key)
	}
	if !img.Initialized() {
		return nil, fmt.Errorf("core: checkpoint %s holds an uninitialized image", key)
	}
	if img.App != p.spec.App {
		return nil, fmt.Errorf("core: checkpoint %s holds a %s image, spec runs %s", key, img.App, p.spec.App)
	}
	auditMachine(m)
	p.m = m
	p.img = img
	return &Checkpoint{p: p}, nil
}
