package workload

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"graphmem/internal/ckpt"
	"graphmem/internal/memsys"
)

const nodeBytes = 128 << 20 // 64 regions

func TestAgeSystemDensity(t *testing.T) {
	mem := memsys.New(nodeBytes)
	regions := int(mem.TotalPages() / memsys.HugePages)
	got := AgeSystem(mem, 0.125, 42)
	want := regions / 8
	if got < want-1 || got > want+1 {
		t.Fatalf("poisoned %d regions, want ~%d", got, want)
	}
	// Each poison consumes exactly one page.
	if free := mem.FreePages(); free != mem.TotalPages()-uint64(got) {
		t.Fatalf("free = %d", free)
	}
	if int(mem.FreeHugeBlocks()) != regions-got {
		t.Fatalf("huge blocks = %d, want %d", mem.FreeHugeBlocks(), regions-got)
	}
}

func TestAgeSystemStratified(t *testing.T) {
	mem := memsys.New(nodeBytes)
	AgeSystem(mem, 0.25, 1)
	// Every quarter of memory must carry close to a quarter of the
	// poisons: count unmovable frames per quarter.
	quarters := make([]int, 4)
	qsize := memsys.Frame(mem.TotalPages() / 4)
	mem.ForEachAllocated(func(f memsys.Frame, mt memsys.MigrateType) {
		quarters[f/qsize]++
	})
	for i, q := range quarters {
		if math.Abs(float64(q)-4) > 1.5 {
			t.Fatalf("quarter %d has %d poisons, want ~4 (stratification broken: %v)", i, q, quarters)
		}
	}
}

func TestAgeSystemZeroAndClamp(t *testing.T) {
	mem := memsys.New(nodeBytes)
	if AgeSystem(mem, 0, 0) != 0 {
		t.Fatal("zero fraction poisoned something")
	}
	if got := AgeSystem(mem, 5, 0); got != int(mem.TotalPages()/memsys.HugePages) {
		t.Fatalf("clamped fraction poisoned %d", got)
	}
}

func TestMemhogAscendingAndPinned(t *testing.T) {
	mem := memsys.New(nodeBytes)
	h := NewMemhog(mem, 32<<20)
	if h.PinnedBytes() != 32<<20 {
		t.Fatalf("pinned %d", h.PinnedBytes())
	}
	// Lowest 8192 frames must be the hog's.
	for f := memsys.Frame(0); f < 8192; f++ {
		if !mem.Allocated(f) || mem.MigrateTypeOf(f) != memsys.Pinned {
			t.Fatalf("frame %d not pinned", f)
		}
	}
	// Pinned memory is not reclaimable.
	if d, s := mem.ReclaimPages(10); d+s != 0 {
		t.Fatal("pinned pages reclaimed")
	}
	h.Release()
	if mem.FreePages() != mem.TotalPages() {
		t.Fatal("release leaked")
	}
	if err := mem.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// refMemhog is the per-frame reference NewMemhog must match: AllocAt on
// every frame in ascending order until the footprint is pinned.
func refMemhog(mem *memsys.Memory, bytes uint64) *Memhog {
	pages := int(bytes / memsys.PageSize)
	h := &Memhog{mem: mem}
	total := memsys.Frame(mem.TotalPages())
	for f := memsys.Frame(0); h.pages < pages && f < total; f++ {
		if mem.AllocAt(f, 0, memsys.Pinned, h, uint64(f)) {
			h.runs = extendRuns(h.runs, f)
			h.pages++
		}
	}
	return h
}

// extendRuns adds frame f, above every frame in runs, to the maximal runs.
func extendRuns(runs []pinRun, f memsys.Frame) []pinRun {
	if n := len(runs); n > 0 && runs[n-1].start+memsys.Frame(runs[n-1].n) == f {
		runs[n-1].n++
		return runs
	}
	return append(runs, pinRun{start: f, n: 1})
}

// hogNode is an aged node with a huge movable block and an unmovable
// order-3 block low in memory, below the cut of the larger hogs.
func hogNode(t *testing.T) *memsys.Memory {
	t.Helper()
	mem := memsys.New(nodeBytes)
	if !mem.AllocAt(2*memsys.HugePages, memsys.HugeOrder, memsys.Movable, nil, 0) ||
		!mem.AllocAt(5*memsys.HugePages+64, 3, memsys.Unmovable, nil, 0) {
		t.Fatal("staging the node failed")
	}
	AgeSystem(mem, 0.125, 5)
	return mem
}

// hogImage returns the checkpoint bytes of a node whose one owner is h.
func hogImage(t *testing.T, mem *memsys.Memory, h *Memhog) []byte {
	t.Helper()
	var buf bytes.Buffer
	_, err := ckpt.Save(&buf, "hog", func(e *ckpt.Encoder) {
		memsys.Walk(e.Walker(), &mem, func(w *ckpt.Walker, o memsys.Owner, m *memsys.Memory) memsys.Owner {
			WalkMemhog(w, &h, m)
			return h
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMemhogMatchesPerFrame: on an aged node with allocated blocks below
// the cut, NewMemhog's runs, page count and node image equal the
// per-frame reference hog's, and its runs are exactly the maximal runs of
// the node's pinned frames.
func TestMemhogMatchesPerFrame(t *testing.T) {
	for _, hogBytes := range []uint64{0, 4096, 3 << 20, 96 << 20, nodeBytes / 2} {
		mem, refMem := hogNode(t), hogNode(t)
		h, ref := NewMemhog(mem, hogBytes), refMemhog(refMem, hogBytes)
		if h.pages != ref.pages || !slices.Equal(h.runs, ref.runs) {
			t.Fatalf("%d bytes: %d pages in runs %v, reference %d pages in %v", hogBytes, h.pages, h.runs, ref.pages, ref.runs)
		}
		if !bytes.Equal(hogImage(t, mem, h), hogImage(t, refMem, ref)) {
			t.Fatalf("%d bytes: the node image differs from the per-frame reference's", hogBytes)
		}
		var pinned []pinRun
		mem.ForEachAllocated(func(f memsys.Frame, mt memsys.MigrateType) {
			if mt == memsys.Pinned {
				pinned = extendRuns(pinned, f)
			}
		})
		if !slices.Equal(h.runs, pinned) {
			t.Fatalf("%d bytes: runs %v are not the maximal pinned runs %v", hogBytes, h.runs, pinned)
		}
		if err := mem.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMemhogSkipsOccupiedFrames(t *testing.T) {
	mem := memsys.New(nodeBytes)
	AgeSystem(mem, 0.25, 7)
	before := mem.FreePages()
	NewMemhog(mem, 16<<20)
	if mem.FreePages() != before-4096 {
		t.Fatal("memhog accounting wrong in aged memory")
	}
}

func TestMemhogPanicsWhenOversized(t *testing.T) {
	mem := memsys.New(nodeBytes)
	defer func() {
		if recover() == nil {
			t.Fatal("oversized memhog did not panic")
		}
	}()
	NewMemhog(mem, nodeBytes*2)
}

func TestFragmentLevels(t *testing.T) {
	for _, level := range []float64{0.25, 0.5, 0.75} {
		mem := memsys.New(nodeBytes)
		freeBefore := mem.FreePages()
		n := Fragment(mem, level)
		wantBlocks := int(level * float64(freeBefore) / memsys.HugePages)
		if n < wantBlocks-1 || n > wantBlocks {
			t.Fatalf("level %v: fragmented %d blocks, want ~%d", level, n, wantBlocks)
		}
		// One page per fragmented region stays allocated.
		if mem.FreePages() != freeBefore-uint64(n) {
			t.Fatalf("level %v: free = %d", level, mem.FreePages())
		}
		// Fragmented regions host no huge block.
		if int(mem.FreeHugeBlocks()) != int(freeBefore/memsys.HugePages)-n {
			t.Fatalf("level %v: %d huge blocks remain", level, mem.FreeHugeBlocks())
		}
		// The damage is permanent: compaction cannot fix it.
		if res := mem.TryCompactHuge(); res.Succeeded && level == 1 {
			t.Fatal("compaction fixed unmovable fragmentation")
		}
	}
}

func TestFragmentZero(t *testing.T) {
	mem := memsys.New(nodeBytes)
	if Fragment(mem, 0) != 0 {
		t.Fatal("zero level fragmented")
	}
}

func TestPageCacheFillAndDrop(t *testing.T) {
	mem := memsys.New(nodeBytes)
	pc := NewPageCache(mem)
	got := pc.Fill(8 << 20)
	if got != 8<<20 || pc.ResidentBytes() != 8<<20 {
		t.Fatalf("fill = %d resident = %d", got, pc.ResidentBytes())
	}
	pc.Drop()
	if pc.ResidentBytes() != 0 || mem.FreePages() != mem.TotalPages() {
		t.Fatal("drop incomplete")
	}
}

func TestPageCacheReclaimable(t *testing.T) {
	mem := memsys.New(nodeBytes)
	pc := NewPageCache(mem)
	pc.Fill(4 << 20)
	dropped, swapped := mem.ReclaimPages(100)
	if dropped != 100 || swapped != 0 {
		t.Fatalf("reclaim = (%d,%d)", dropped, swapped)
	}
	if pc.ResidentBytes() != 4<<20-100*memsys.PageSize {
		t.Fatalf("resident = %d", pc.ResidentBytes())
	}
}

func TestPageCacheFillStopsAtOOM(t *testing.T) {
	mem := memsys.New(nodeBytes)
	NewMemhog(mem, nodeBytes-4<<20)
	pc := NewPageCache(mem)
	got := pc.Fill(16 << 20)
	if got != 4<<20 {
		t.Fatalf("fill returned %d, want the 4MB that was free", got)
	}
}

// TestPressureScenario is the integration check for the paper's §4
// environment: after aging + memhog, the free tail carries the ambient
// poison density, so the huge page supply is a (1-f) fraction of the
// slack — the mechanism behind the three pressure phases.
func TestPressureScenario(t *testing.T) {
	mem := memsys.New(nodeBytes)
	AgeSystem(mem, 0.125, 3)
	wss := uint64(32 << 20)
	delta := uint64(4 << 20)
	hog := mem.FreePages()*memsys.PageSize - wss - delta
	NewMemhog(mem, hog)

	free := mem.FreePages() * memsys.PageSize
	if free != wss+delta {
		t.Fatalf("free = %dMB, want WSS+delta", free>>20)
	}
	// Huge supply ≈ (1-0.125) × free regions.
	supply := float64(mem.FreeHugeBlocks()) * memsys.HugeSize
	want := 0.875 * float64(free)
	if supply < want*0.85 || supply > want*1.15 {
		t.Fatalf("huge supply %dMB, want ≈%dMB", uint64(supply)>>20, uint64(want)>>20)
	}
}

func TestAgeSystemSeedChangesPlacementNotDensity(t *testing.T) {
	count := func(seed uint64) (int, []memsys.Frame) {
		mem := memsys.New(nodeBytes)
		n := AgeSystem(mem, 0.25, seed)
		var frames []memsys.Frame
		mem.ForEachAllocated(func(f memsys.Frame, mt memsys.MigrateType) {
			frames = append(frames, f)
		})
		return n, frames
	}
	n1, f1 := count(1)
	n2, f2 := count(2)
	if n1 != n2 {
		t.Fatalf("density varies with seed: %d vs %d", n1, n2)
	}
	same := true
	for i := range f1 {
		if i >= len(f2) || f1[i] != f2[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical poison placement")
	}
}

func TestChurnerOscillates(t *testing.T) {
	mem := memsys.New(nodeBytes)
	c := NewChurner(mem, 8<<20, 512)
	peak := uint64(0)
	for i := 0; i < 100; i++ {
		c.Step()
		if r := c.ResidentBytes(); r > peak {
			peak = r
		}
	}
	if peak != 8<<20 {
		t.Fatalf("peak = %dMB, want 8MB", peak>>20)
	}
	if c.Grows == 0 || c.Shrinks == 0 {
		t.Fatalf("no oscillation: grows=%d shrinks=%d", c.Grows, c.Shrinks)
	}
	c.Release()
	if mem.FreePages() != mem.TotalPages() {
		t.Fatal("release leaked")
	}
}

func TestChurnerBacksOffAtOOM(t *testing.T) {
	mem := memsys.New(nodeBytes)
	NewMemhog(mem, nodeBytes-2<<20)
	c := NewChurner(mem, 64<<20, 4096)
	for i := 0; i < 10; i++ {
		c.Step() // must not panic when memory runs out
	}
	if c.ResidentBytes() > 2<<20 {
		t.Fatal("churner exceeded available memory")
	}
}
