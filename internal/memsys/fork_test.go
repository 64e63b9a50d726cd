package memsys

import (
	"bytes"
	"testing"

	"graphmem/internal/ckpt"
)

// isoOwner is a stateless frame owner for the fork-isolation tests: it
// accepts every move and approves every eviction, so a fork and its
// original may share it. (The field keeps distinct owners distinct.)
type isoOwner struct{ id int }

func (*isoOwner) FrameMoved(old, new Frame, cookie uint64)   {}
func (*isoOwner) FrameReclaimed(f Frame, cookie uint64) bool { return true }

// isoOwners is the OwnerFunc for isoOwner tables: a fork keeps the owner,
// an image records one tag byte per owner.
func isoOwners(w *ckpt.Walker, o Owner, mem *Memory) Owner {
	tag := uint8(1)
	ckpt.Num(w, &tag)
	if o == nil {
		return &isoOwner{}
	}
	return o
}

// forkMemory returns a fork of m.
func forkMemory(m *Memory) *Memory {
	c := m
	Walk(ckpt.Cloner(), &c, isoOwners)
	return c
}

// imageOf returns the checkpoint bytes of m (the test-only shadow mirror,
// which images refuse, is left out).
func imageOf(t *testing.T, m *Memory) []byte {
	t.Helper()
	shadow := m.shadow
	m.shadow = nil
	defer func() { m.shadow = shadow }()
	var buf bytes.Buffer
	if _, err := ckpt.Save(&buf, "memsys", func(e *ckpt.Encoder) { Walk(e.Walker(), &m, isoOwners) }); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// isoNode is a fragmented node spanning 65 frame pages (the last one
// short) and two pages of every free bitmap. Every 2MB region holds some
// allocation, so no huge block is free and compaction must migrate:
//
//	region r%64 == 0  one owned movable page (a compaction candidate)
//	region r%8 == 1   one owned pinned page (movable by compaction)
//	region r%8 == 3   a huge movable block
//	region r%8 == 5   a huge unmovable block split into pages, odd pages freed
//	region r%8 == 6   one owned reclaimable page (page cache)
//	otherwise         an unmovable order-2 block
func isoNode(t *testing.T) (*Memory, *isoOwner) {
	t.Helper()
	m := New(1<<30 + 8<<20)
	if m.frames.Len() <= 64*ckpt.PageLen || m.freeBits[0].Len() <= ckpt.PageLen {
		t.Fatalf("isolation node spans too few pages: %d frames, %d bitmap words", m.frames.Len(), m.freeBits[0].Len())
	}
	o := &isoOwner{id: 1}
	ok := true
	for r := Frame(0); r < m.nframes/HugePages; r++ {
		base := r * HugePages
		switch {
		case r%64 == 0:
			ok = ok && m.AllocAt(base+2, 0, Movable, o, uint64(base+2))
		case r%8 == 1:
			ok = ok && m.AllocAt(base+7, 0, Pinned, o, uint64(base+7))
		case r%8 == 3:
			ok = ok && m.AllocAt(base, HugeOrder, Movable, nil, 0)
		case r%8 == 5:
			ok = ok && m.AllocAt(base, HugeOrder, Unmovable, nil, 0)
			m.SplitAllocated(base, HugeOrder)
			for i := Frame(1); i < HugePages; i += 2 {
				m.Free(base+i, 0)
			}
		case r%8 == 6:
			ok = ok && m.AllocAt(base+9, 0, Reclaimable, o, uint64(base+9))
		default:
			ok = ok && m.AllocAt(base+4, 2, Unmovable, nil, 0)
		}
	}
	if !ok {
		t.Fatal("staging the isolation node failed")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return m, o
}

// isoMutators drive every memsys mutator on the isolation node, each
// touching pages beyond the first so a forgotten claim on any page
// shows.
var isoMutators = []struct {
	name string
	run  func(t *testing.T, m *Memory, o Owner)
}{
	{"Alloc", func(t *testing.T, m *Memory, o Owner) {
		for i := 0; i < 3; i++ {
			if m.Alloc(0, Movable, o, 1) == NoFrame || m.Alloc(3, Unmovable, nil, 0) == NoFrame {
				t.Fatal("Alloc failed")
			}
		}
	}},
	{"AllocAt", func(t *testing.T, m *Memory, o Owner) {
		// Region 514 lies in the short last frame page and the second
		// bitmap page.
		if !m.AllocAt(2*HugePages+64, 3, Unmovable, nil, 0) || !m.AllocAt(514*HugePages+100, 0, Movable, o, 5) {
			t.Fatal("AllocAt failed")
		}
	}},
	{"Free", func(t *testing.T, m *Memory, o Owner) {
		m.Free(2*HugePages+4, 2)
		m.Free(3*HugePages, HugeOrder)
		m.Free(513*HugePages+7, 0)
	}},
	{"SplitAllocated", func(t *testing.T, m *Memory, o Owner) {
		m.SplitAllocated(11*HugePages, HugeOrder)
		m.SplitAllocated(507*HugePages, HugeOrder)
	}},
	{"SetOwner", func(t *testing.T, m *Memory, o Owner) {
		m.SetOwner(HugePages+7, o, 77)
		m.SetOwner(512*HugePages+2, o, 78)
	}},
	{"SetMigrateType", func(t *testing.T, m *Memory, o Owner) {
		m.SetMigrateType(HugePages+7, Movable)
		m.SetMigrateType(513*HugePages+7, Movable)
	}},
	{"TryCompactHuge", func(t *testing.T, m *Memory, o Owner) {
		// Each created block is taken, as a huge fault would, so the
		// next compaction must migrate again.
		for i := 0; i < 3; i++ {
			res := m.TryCompactHuge()
			if !res.Succeeded || res.Migrated == 0 {
				t.Fatalf("compaction %d: %+v, want a migrating success", i, res)
			}
			if !m.AllocAt(res.Block, HugeOrder, Movable, nil, 0) {
				t.Fatalf("compaction %d left no free huge block at %d", i, res.Block)
			}
		}
	}},
	{"ReclaimPages", func(t *testing.T, m *Memory, o Owner) {
		if d, s := m.ReclaimPages(70); d+s != 70 {
			t.Fatalf("reclaimed %d+%d pages, want 70", d, s)
		}
	}},
}

// TestForkIsolation: for every mutator, a fork and its original never
// see each other's writes. Mutating the fork leaves the original's image
// byte-identical to its pre-fork image, mutating the original leaves the
// fork's image unchanged, and both sides stay consistent. A write site
// that forgets to claim its page either panics or leaks the write into
// the other side's image.
func TestForkIsolation(t *testing.T) {
	for _, mu := range isoMutators {
		t.Run(mu.name, func(t *testing.T) {
			for _, mutateFork := range []bool{true, false} {
				orig, o := isoNode(t)
				before := imageOf(t, orig)
				fork := forkMemory(orig)
				if !bytes.Equal(imageOf(t, fork), before) {
					t.Fatal("a fresh fork encodes differently from its original")
				}
				mutated, idle := orig, fork
				if mutateFork {
					mutated, idle = fork, orig
				}
				mu.run(t, mutated, o)
				if bytes.Equal(imageOf(t, mutated), before) {
					t.Fatal("the mutator changed nothing")
				}
				if !bytes.Equal(imageOf(t, idle), before) {
					t.Fatalf("mutating the %s changed the other side's image", side(mutateFork))
				}
				for _, m := range []*Memory{mutated, idle} {
					if err := m.CheckInvariants(); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
}

func side(fork bool) string {
	if fork {
		return "fork"
	}
	return "original"
}

// TestForkOfForkIsolation: a fork of a fork, a fork taken while the
// original keeps running, and a dropped fork all leave every other
// image intact.
func TestForkOfForkIsolation(t *testing.T) {
	orig, o := isoNode(t)
	base := imageOf(t, orig)
	a := forkMemory(orig)
	isoMutators[0].run(t, a, o) // Alloc on the first fork
	aImg := imageOf(t, a)
	b := forkMemory(a)
	_ = forkMemory(b)           // dropped: its pages stay shared
	isoMutators[2].run(t, a, o) // Free on a after forking it
	if !bytes.Equal(imageOf(t, b), aImg) {
		t.Fatal("writes to a fork reached the fork taken from it")
	}
	aFreed := imageOf(t, a)
	isoMutators[6].run(t, b, o) // compaction on b
	if !bytes.Equal(imageOf(t, a), aFreed) {
		t.Fatal("writes to a fork of a fork reached its source")
	}
	if !bytes.Equal(imageOf(t, orig), base) {
		t.Fatal("forks of a fork changed the original")
	}
	c := forkMemory(orig)
	isoMutators[7].run(t, orig, o) // the original keeps running after a fork
	if !bytes.Equal(imageOf(t, c), base) {
		t.Fatal("the running original changed a fork taken from it")
	}
	for _, m := range []*Memory{orig, a, b, c} {
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}
