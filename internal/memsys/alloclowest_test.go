package memsys

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
)

// allocLowestRef is the per-frame reference AllocLowest must match:
// AllocAt on every free frame in ascending order, each frame its own
// order-0 block with its frame number as its cookie.
func allocLowestRef(m *Memory, n uint64, mtype MigrateType, owner Owner, taken func(f, npages Frame)) uint64 {
	var got uint64
	for f := Frame(0); f < m.nframes && got < n; f++ {
		if m.AllocAt(f, 0, mtype, owner, uint64(f)) {
			taken(f, 1)
			got++
		}
	}
	return got
}

// lowestNodes build 64 MB nodes (four frame pages, 32 regions) for the
// AllocLowest differential test. Each build is deterministic, so two
// builds give two identical never-forked nodes.
var lowestNodes = []struct {
	name  string
	build func(t *testing.T) *Memory
}{
	{"fresh", func(t *testing.T) *Memory { return New(64 << 20) }},
	{"aged", func(t *testing.T) *Memory {
		m := New(64 << 20)
		ageLowest(t, m)
		return m
	}},
	// Below and between the aged pages: a huge movable block, an
	// unmovable block, a huge unmovable block split into pages with its
	// odd pages freed, a huge unmovable block, owned pinned, movable and
	// reclaimable pages, and free max-order blocks above.
	{"mixed", func(t *testing.T) *Memory {
		m := New(64 << 20)
		o := &isoOwner{id: 1}
		ok := m.AllocAt(0, HugeOrder, Movable, nil, 0) &&
			m.AllocAt(HugePages+4, 2, Unmovable, nil, 0) &&
			m.AllocAt(HugePages+40, 0, Movable, o, 7) &&
			m.AllocAt(2*HugePages, HugeOrder, Unmovable, nil, 0) &&
			m.AllocAt(3*HugePages+300, 0, Pinned, o, 9) &&
			m.AllocAt(5*HugePages, HugeOrder, Unmovable, nil, 0) &&
			m.AllocAt(6*HugePages+17, 0, Reclaimable, o, 11)
		if !ok {
			t.Fatal("staging the mixed node failed")
		}
		m.SplitAllocated(2*HugePages, HugeOrder)
		for i := Frame(1); i < HugePages; i += 2 {
			m.Free(2*HugePages+i, 0)
		}
		ageLowest(t, m)
		return m
	}},
}

// ageLowest places one unmovable page in every third 2MB region from
// region 7 on, at a varying offset, as AgeSystem does: the free blocks
// around each one come in every order below MaxOrder.
func ageLowest(t *testing.T, m *Memory) {
	t.Helper()
	for r := Frame(7); r < m.nframes/HugePages; r += 3 {
		if !m.AllocAt(r*HugePages+(r*37)%HugePages, 0, Unmovable, nil, 0) {
			t.Fatalf("aging region %d failed", r)
		}
	}
}

// lowestCuts returns the request sizes to test on m: none, one, half and
// all of the free frames, more than all of them, and for every order the
// sizes that end inside the node's lowest free block of that order.
func lowestCuts(m *Memory) []uint64 {
	free := m.FreePages()
	cuts := []uint64{0, 1, free / 2, free, free + 100}
	for o := 0; o <= MaxOrder; o++ {
		b := NoFrame
		for f := Frame(0); f < m.nframes; f++ {
			if !m.Allocated(f) && m.isFree(f, o) {
				b = f
				break
			}
		}
		if b == NoFrame {
			continue
		}
		var below uint64
		for f := Frame(0); f < b; f++ {
			if !m.Allocated(f) {
				below++
			}
		}
		size := uint64(1) << o
		for _, r := range []uint64{1, size/2 + 1, size - 1, size} {
			if r >= 1 && r <= size {
				cuts = append(cuts, below+r)
			}
		}
	}
	slices.Sort(cuts)
	return slices.Compact(cuts)
}

// frameList expands taken ranges into frames.
func frameList(dst *[]Frame) func(f, npages Frame) {
	return func(f, npages Frame) {
		for i := Frame(0); i < npages; i++ {
			*dst = append(*dst, f+i)
		}
	}
}

// TestAllocLowestMatchesPerFrame: AllocLowest leaves exactly the node the
// per-frame AllocAt reference leaves — every frame word, free bitmap,
// counter, hint, reclaim queue and the owner table, as the image shows —
// and reports the same frames. It runs on two forks of one node (the
// source and an idle fork taken before the call must keep their images)
// and on two never-forked copies, with the shadow mirror on, for a
// pinned type and a reclaim-queued one.
func TestAllocLowestMatchesPerFrame(t *testing.T) {
	for _, node := range lowestNodes {
		for _, forked := range []bool{false, true} {
			for _, mt := range []MigrateType{Pinned, Movable} {
				t.Run(fmt.Sprintf("%s/forked=%v/%s", node.name, forked, mt), func(t *testing.T) {
					for _, n := range lowestCuts(node.build(t)) {
						checkAllocLowest(t, node.build, forked, mt, n)
					}
				})
			}
		}
	}
}

func checkAllocLowest(t *testing.T, build func(*testing.T) *Memory, forked bool, mt MigrateType, n uint64) {
	t.Helper()
	src := build(t)
	src.EnableShadow()
	var bulk, ref, idle *Memory
	var before []byte
	if forked {
		before = imageOf(t, src)
		idle, bulk, ref = forkMemory(src), forkMemory(src), forkMemory(src)
	} else {
		bulk, ref = src, build(t)
		ref.EnableShadow()
	}
	owners := len(bulk.owners)
	o := &isoOwner{id: 2}
	var gotBulk, gotRef []Frame
	nb := bulk.AllocLowest(n, mt, o, frameList(&gotBulk))
	nr := allocLowestRef(ref, n, mt, o, frameList(&gotRef))
	if nb != nr || !slices.Equal(gotBulk, gotRef) {
		t.Fatalf("n=%d: took %d frames %v, reference took %d frames %v", n, nb, span(gotBulk), nr, span(gotRef))
	}
	if n == 0 && len(bulk.owners) != owners {
		t.Fatalf("n=0 interned the owner: %d table entries, had %d", len(bulk.owners), owners)
	}
	if !bytes.Equal(imageOf(t, bulk), imageOf(t, ref)) {
		t.Fatalf("n=%d: the node differs from the per-frame reference's", n)
	}
	for _, m := range []*Memory{bulk, ref} {
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
	if forked {
		for _, m := range []*Memory{src, idle} {
			if !bytes.Equal(imageOf(t, m), before) {
				t.Fatalf("n=%d: allocating on a fork changed the source or an idle fork", n)
			}
		}
	}
}

// span summarizes a frame list for failure messages.
func span(fs []Frame) string {
	if len(fs) == 0 {
		return "[]"
	}
	return fmt.Sprintf("[%d..%d]", fs[0], fs[len(fs)-1])
}
