package memsys

import (
	"bytes"
	"maps"
	"slices"
	"testing"

	"graphmem/internal/check"
	"graphmem/internal/ckpt"
)

// fuzzOwner is the shadow bookkeeping for tracked order-0 movable
// allocations: compaction moves them (FrameMoved) and reclaim may swap
// them out (FrameReclaimed), and the shadow must stay coherent through
// both, exactly like the VM layer's mapping tables.
type fuzzOwner struct {
	t       *testing.T
	entries []fuzzEntry
}

type fuzzEntry struct {
	frame Frame
	live  bool
}

func (o *fuzzOwner) FrameMoved(old, new Frame, cookie uint64) {
	e := &o.entries[cookie]
	if !e.live || e.frame != old {
		o.t.Fatalf("FrameMoved(%d→%d, cookie %d): shadow has {frame %d, live %v}",
			old, new, cookie, e.frame, e.live)
	}
	e.frame = new
}

func (o *fuzzOwner) FrameReclaimed(f Frame, cookie uint64) bool {
	e := &o.entries[cookie]
	if !e.live || e.frame != f {
		return false // stale queue entry
	}
	if (uint64(f)+cookie)%3 == 0 {
		return false // veto: page is "hot"
	}
	e.live = false
	return true
}

// fuzzHog owns the frames the bulk-take op allocated. Like the memhog,
// each frame's cookie is its own number, so a compaction move re-keys the
// cookie; reclaim is always vetoed.
type fuzzHog struct {
	t      *testing.T
	m      *Memory
	frames map[Frame]bool
}

func (h *fuzzHog) FrameMoved(old, new Frame, cookie uint64) {
	if cookie != uint64(old) || !h.frames[old] {
		h.t.Fatalf("hog FrameMoved(%d→%d, cookie %d): frame not held under that cookie", old, new, cookie)
	}
	delete(h.frames, old)
	h.frames[new] = true
	h.m.SetOwner(new, h, uint64(new))
}

func (h *fuzzHog) FrameReclaimed(f Frame, cookie uint64) bool { return false }

// fuzzNode is one side of a FuzzAllocFree run: a node and the harness's
// own record of what it allocated there. On the reference side the
// bulk-take op runs the per-frame AllocAt loop instead of AllocLowest.
type fuzzNode struct {
	m         *Memory
	owner     *fuzzOwner
	hog       *fuzzHog
	huge      []Frame // movable huge blocks, nil owner: immune to move/reclaim
	unmov     []fuzzBlock
	reference bool
}

// newFuzzNode returns a fresh 32 MB node (8192 frames: two frame pages).
func newFuzzNode(t *testing.T) *fuzzNode {
	m := New(32 << 20)
	return &fuzzNode{m: m, owner: &fuzzOwner{t: t}, hog: &fuzzHog{t: t, m: m, frames: map[Frame]bool{}}}
}

type fuzzBlock struct {
	frame Frame
	order int
}

// fork returns a fork of n whose harness record is a copy of n's, with
// the tracked owners forked alongside the node.
func (n *fuzzNode) fork(t *testing.T) *fuzzNode {
	c := &fuzzNode{
		owner: &fuzzOwner{t: t, entries: slices.Clone(n.owner.entries)},
		hog:   &fuzzHog{t: t, frames: maps.Clone(n.hog.frames)},
		huge:  slices.Clone(n.huge),
		unmov: slices.Clone(n.unmov),
	}
	c.m = n.m
	Walk(ckpt.Cloner(), &c.m, func(w *ckpt.Walker, o Owner, mem *Memory) Owner {
		switch o {
		case Owner(n.owner):
			return c.owner
		case Owner(n.hog):
			return c.hog
		}
		return o
	})
	c.hog.m = c.m
	return c
}

// apply runs one fuzzer operation.
func (n *fuzzNode) apply(op, arg int) {
	m := n.m
	switch op {
	case 0: // tracked order-0 movable alloc
		fr := m.Alloc(0, Movable, n.owner, uint64(len(n.owner.entries)))
		if fr != NoFrame {
			n.owner.entries = append(n.owner.entries, fuzzEntry{frame: fr, live: true})
		}
	case 1: // movable huge block, nil owner
		fr := m.Alloc(HugeOrder, Movable, nil, 0)
		if fr != NoFrame {
			n.huge = append(n.huge, fr)
		}
	case 2: // unmovable block, any order up to huge
		order := arg % (HugeOrder + 1)
		fr := m.Alloc(order, Unmovable, nil, 0)
		if fr != NoFrame {
			n.unmov = append(n.unmov, fuzzBlock{fr, order})
		}
	case 3: // free a tracked page (unless reclaim already took it)
		if len(n.owner.entries) == 0 {
			return
		}
		e := &n.owner.entries[arg%len(n.owner.entries)]
		if e.live {
			m.Free(e.frame, 0)
			e.live = false
		}
	case 4: // free a huge block
		if len(n.huge) == 0 {
			return
		}
		j := arg % len(n.huge)
		m.Free(n.huge[j], HugeOrder)
		n.huge[j] = n.huge[len(n.huge)-1]
		n.huge = n.huge[:len(n.huge)-1]
	case 5: // free an unmovable block
		if len(n.unmov) == 0 {
			return
		}
		j := arg % len(n.unmov)
		m.Free(n.unmov[j].frame, n.unmov[j].order)
		n.unmov[j] = n.unmov[len(n.unmov)-1]
		n.unmov = n.unmov[:len(n.unmov)-1]
	case 6: // split an unmovable huge block, keep only its head page
		for j := range n.unmov {
			if n.unmov[j].order != HugeOrder {
				continue
			}
			m.SplitAllocated(n.unmov[j].frame, HugeOrder)
			for k := Frame(1); k < HugePages; k++ {
				m.Free(n.unmov[j].frame+k, 0)
			}
			n.unmov[j].order = 0
			break
		}
	case 7:
		m.TryCompactHuge()
	case 8:
		m.ReclaimPages(1 + arg%64)
	case 9: // pin/unpin a tracked page (compaction still moves it)
		if len(n.owner.entries) == 0 {
			return
		}
		e := n.owner.entries[arg%len(n.owner.entries)]
		if !e.live {
			return
		}
		if m.MigrateTypeOf(e.frame) == Movable {
			m.SetMigrateType(e.frame, Pinned)
		} else {
			m.SetMigrateType(e.frame, Movable)
		}
	case 10: // bulk take of the lowest free frames, pinned or movable
		mt := Pinned
		if arg%2 == 1 {
			mt = Movable
		}
		take := (*Memory).AllocLowest
		if n.reference {
			take = allocLowestRef
		}
		take(m, uint64(arg)*16, mt, n.hog, func(f, npages Frame) {
			for i := Frame(0); i < npages; i++ {
				n.hog.frames[f+i] = true
			}
		})
	}
}

// audit checks the full invariant set (and, through it, the shadow
// mirror) and that the harness's live pages are allocated.
func (n *fuzzNode) audit(t *testing.T, step int) {
	t.Helper()
	if err := n.m.CheckInvariants(); err != nil {
		t.Fatalf("op %d: %v", step, err)
	}
	check.Audit("memsys", n.m.CheckInvariants)
	for j, e := range n.owner.entries {
		if e.live && !n.m.Allocated(e.frame) {
			t.Fatalf("op %d: tracked entry %d: frame %d live in shadow but free in allocator", step, j, e.frame)
		}
	}
	for f := range n.hog.frames {
		if fi := n.m.frames.At(int(f)); !fi.allocated() || fi.cookie() != uint64(f) || n.m.ownerAt(fi.owner()) != Owner(n.hog) {
			t.Fatalf("op %d: hog frame %d is not allocated to the hog under its own number", step, f)
		}
	}
}

// teardown frees everything the harness holds; all memory must return,
// fully coalesced.
func (n *fuzzNode) teardown(t *testing.T) {
	t.Helper()
	for j := range n.owner.entries {
		if n.owner.entries[j].live {
			n.m.Free(n.owner.entries[j].frame, 0)
		}
	}
	for _, fr := range n.huge {
		n.m.Free(fr, HugeOrder)
	}
	for _, b := range n.unmov {
		n.m.Free(b.frame, b.order)
	}
	hogFrames := make([]Frame, 0, len(n.hog.frames))
	for f := range n.hog.frames {
		hogFrames = append(hogFrames, f)
	}
	slices.Sort(hogFrames)
	for _, f := range hogFrames {
		n.m.Free(f, 0)
	}
	if err := n.m.CheckInvariants(); err != nil {
		t.Fatalf("after teardown: %v", err)
	}
	if n.m.FreePages() != n.m.TotalPages() {
		t.Fatalf("leak: %d of %d pages free after teardown", n.m.FreePages(), n.m.TotalPages())
	}
}

// FuzzAllocFree replays arbitrary Alloc/Free/split/compaction/reclaim/
// bulk-take sequences against the buddy allocator and audits the full
// invariant set (free-list disjointness, buddy coalescing, per-migratetype
// frame conservation) every few operations. At an op index the input's
// first byte picks, the node is forked twice: the remaining ops replay on
// the original and on one fork, which must end byte-identical, while the
// other fork stays idle and must still encode to its fork-time image. The
// replaying fork runs the bulk take as the per-frame AllocAt reference,
// so the byte-identity check is also AllocLowest's differential oracle.
// The node spans two frame pages, so forks share pages and copy them on
// write. Run it with -tags simcheck to also exercise the check.Audit
// path.
func FuzzAllocFree(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 7, 3, 0, 4, 8, 5})
	f.Add([]byte{1, 1, 1, 4, 4, 4})
	f.Add([]byte{0, 0, 0, 0, 8, 8, 8, 8, 7, 7})
	f.Add([]byte{2, 0xF2, 6, 5, 2, 0x32, 6, 9, 3})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{9, 0, 0, 0, 1, 2, 0x22, 0, 7, 9, 3, 1, 8, 7, 5, 6, 7, 4})
	f.Add([]byte{2, 9, 10, 8, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 6, 7, 10, 3, 7})

	f.Fuzz(func(t *testing.T, data []byte) {
		orig := newFuzzNode(t)
		// Mirror every metadata write into the unpacked reference
		// layout: each audit below then also cross-checks the packed
		// words field by field (shadowCheck via CheckInvariants).
		orig.m.EnableShadow()
		forkAt := 0
		if len(data) > 0 {
			forkAt = int(data[0]) % (len(data) + 1)
		}
		var replay, idle *fuzzNode
		var idleImage []byte
		for i := 0; i <= len(data); i++ {
			if i == forkAt {
				replay, idle = orig.fork(t), orig.fork(t)
				replay.reference = true
				idleImage = imageOf(t, idle.m)
				if !bytes.Equal(imageOf(t, orig.m), idleImage) {
					t.Fatalf("op %d: a fork encodes differently from its original", i)
				}
			}
			if i == len(data) {
				break
			}
			op := int(data[i] % 11)
			arg := 0
			if i+1 < len(data) {
				arg = int(data[i+1])
			}
			sides := []*fuzzNode{orig}
			if replay != nil {
				sides = append(sides, replay)
			}
			for _, n := range sides {
				n.apply(op, arg)
				if i%16 == 0 {
					n.audit(t, i)
				}
			}
		}
		for _, n := range []*fuzzNode{orig, replay, idle} {
			n.audit(t, len(data))
		}
		if !bytes.Equal(imageOf(t, orig.m), imageOf(t, replay.m)) {
			t.Fatal("the original and its fork diverged replaying the same ops")
		}
		if !bytes.Equal(imageOf(t, idle.m), idleImage) {
			t.Fatal("the idle fork changed while the original and the other fork ran")
		}
		orig.teardown(t)
		replay.teardown(t)
	})
}
