package trace_test

import (
	"testing"

	"graphmem/internal/analytics"
	"graphmem/internal/cache"
	"graphmem/internal/cost"
	"graphmem/internal/gen"
	"graphmem/internal/machine"
	"graphmem/internal/oskernel"
	"graphmem/internal/tlb"
	"graphmem/internal/trace"
)

// collector keeps events in memory.
type collector struct{ events []trace.Event }

func (c *collector) Trace(va uint64, tag uint8) {
	c.events = append(c.events, trace.Event{VA: va, Tag: tag})
}

// TestReusePredictionMatchesTLBSimulation cross-validates the two
// independent models: the analytic fully-associative-LRU miss rate from
// exact reuse distances must approximate the set-associative TLB
// simulator's measured miss rate on the same BFS access stream. (They
// cannot agree exactly — associativity conflicts and the L1/STLB split
// differ — but they must tell the same story.)
func TestReusePredictionMatchesTLBSimulation(t *testing.T) {
	g := gen.Generate(gen.Kron25, gen.ScaleBench, false)
	cfg := tlb.Scaled(tlb.Haswell(), 16) // STLB=64 entries: real pressure at bench scale
	m := machine.New(machine.Config{
		MemoryBytes: 256 << 20,
		TLB:         cfg,
		Cache:       cache.Haswell(),
		Cost:        cost.Fast(),
		Kernel:      oskernel.BaselineConfig(),
	})
	img, err := analytics.NewImage(m, g, analytics.BFS)
	if err != nil {
		t.Fatal(err)
	}
	img.Init(analytics.Natural)

	col := &collector{}
	img.RunTraced(analytics.DefaultRunOptions(g), col)
	m.FinishPhases()

	ph, ok := m.Phase("kernel")
	if !ok {
		t.Fatal("kernel phase missing")
	}
	measured := ph.TLB.STLBMissRate()
	if measured < 0.005 {
		t.Skipf("too little TLB pressure to compare (miss=%v)", measured)
	}

	h := trace.ReuseDistances(col.events, 12)
	predicted := h.MissRate(cfg.STLB.Entries)

	ratio := predicted / measured
	if ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("models disagree: predicted %.4f vs measured %.4f (ratio %.2f)",
			predicted, measured, ratio)
	}
}
