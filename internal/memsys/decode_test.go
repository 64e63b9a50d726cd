package memsys

import (
	"bytes"
	"strings"
	"testing"

	"graphmem/internal/ckpt"
)

// TestForkDecodedNode: a decoded node's pages are the payload's bytes and
// private, so writing one copies nothing; forking it shares every page,
// and afterwards neither the node nor its fork sees the other's writes.
func TestForkDecodedNode(t *testing.T) {
	for _, mutateFork := range []bool{false, true} {
		orig, o := isoNode(t)
		img := imageOf(t, orig)
		m := decodeNode(t, img)
		if *m.forked != 0 {
			t.Fatal("a decoded node starts forked")
		}
		// Writing the decoded node before it is forked writes its pages
		// in place.
		last := m.frames.Len() - 1
		pages := []*frameInfo{&m.frames.Span(0, 1)[0], &m.frames.Span(last, last+1)[0]}
		m.SetOwner(HugePages+7, o, 5)
		m.SetOwner(Frame(last), o, 6)
		if &m.frames.Span(0, 1)[0] != pages[0] || &m.frames.Span(last, last+1)[0] != pages[1] {
			t.Fatal("writing a decoded node's private pages copied them")
		}
		img = imageOf(t, m)
		fork := forkMemory(m)
		if &fork.frames.Span(0, 1)[0] != pages[0] || &fork.frames.Span(last, last+1)[0] != pages[1] {
			t.Fatal("a fork of a decoded node does not share its pages")
		}
		mutated, idle := m, fork
		if mutateFork {
			mutated, idle = fork, m
		}
		isoMutators[6].run(t, mutated, o)
		if !bytes.Equal(imageOf(t, idle), img) {
			t.Fatalf("compacting the %s changed the other side", side(mutateFork))
		}
		for _, n := range []*Memory{m, fork} {
			if err := n.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// decodeNode decodes a node from its image.
func decodeNode(t *testing.T, img []byte) *Memory {
	t.Helper()
	d, err := ckpt.Load(bytes.NewReader(img), "memsys")
	if err != nil {
		t.Fatal(err)
	}
	var m *Memory
	Walk(d.Walker(), &m, isoOwners)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestDecodeRejectsCorruptFrames: a frame word that breaks a run of like
// frames in mid-run fails the decode with that frame's check, as a
// frame-by-frame scan would.
func TestDecodeRejectsCorruptFrames(t *testing.T) {
	free := Frame(2*HugePages + 100) // inside region 2's free run
	huge := Frame(3*HugePages + 200) // inside region 3's huge movable block
	for _, tc := range []struct {
		name string
		f    Frame
		edit func(w uint64) uint64
		want string
	}{
		{"stray", free, func(w uint64) uint64 { return 1 }, "non-zero metadata on unallocated frame"},
		{"order", huge, func(w uint64) uint64 { return w&^fiOrderMask | 15<<fiOrderShift }, "frame block order 15 beyond MaxOrder"},
		{"owner", huge, func(w uint64) uint64 { return w&^fiOwnerMask | 300<<fiOwnerShift }, "frame owner ref 300 beyond 2-entry table"},
		{"mtype", huge, func(w uint64) uint64 { return w&^fiMtypeMask | uint64(Unmovable)<<fiMtypeShift }, "per-type allocation counters"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, _ := isoNode(t)
			fi := &m.frames.Mut(int(tc.f), int(tc.f)+1)[0]
			fi.w = tc.edit(fi.w)
			d, err := ckpt.Load(bytes.NewReader(imageOf(t, m)), "memsys")
			if err != nil {
				t.Fatal(err)
			}
			var back *Memory
			Walk(d.Walker(), &back, isoOwners)
			if err := d.Finish(); err == nil || !strings.Contains(err.Error(), "memsys: "+tc.want) {
				t.Fatalf("decode error %v, want %q", err, tc.want)
			}
		})
	}
}
