package core

import (
	"io"

	"graphmem/internal/analytics"
	"graphmem/internal/ckpt"
	"graphmem/internal/machine"
)

// SaveFork writes the container Save would write for a fresh ForkPair of
// the checkpoint's frozen machine and image, so tests can compare a
// fork with its original at the encoder level.
func (cp *Checkpoint) SaveFork(w io.Writer, key string) (int64, error) {
	p := *cp.p
	p.m, p.img = ForkPair(cp.p.m, cp.p.img)
	return ckpt.Save(w, key, p.encode)
}

// RunReplayShards runs a sharded spec as Run does, except that every
// shard is brought up by replaying the load phase from the spec instead
// of forking shard 0: the reference bring-up fork bring-up must match.
func RunReplayShards(spec RunSpec) (*RunResult, error) {
	ms := make([]*machine.Machine, spec.Shards)
	imgs := make([]*analytics.Image, spec.Shards)
	var p *prepared
	for sh := range ms {
		q, err := prepare(spec)
		if err != nil {
			return nil, err
		}
		p, ms[sh], imgs[sh] = q, q.m, q.img
	}
	return p.runShards(ms, imgs), nil
}
