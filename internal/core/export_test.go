package core

import (
	"io"

	"graphmem/internal/ckpt"
)

// SaveFork writes the container Save would write for a fresh ForkPair of
// the checkpoint's frozen machine and image, so tests can compare a
// fork with its original at the encoder level.
func (cp *Checkpoint) SaveFork(w io.Writer, key string) (int64, error) {
	p := *cp.pre
	p.m, p.img = ForkPair(cp.pre.m, cp.pre.img)
	return ckpt.Save(w, key, p.encode)
}
