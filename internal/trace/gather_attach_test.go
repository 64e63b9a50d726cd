package trace_test

import (
	"reflect"
	"testing"

	"graphmem/internal/cache"
	"graphmem/internal/cost"
	"graphmem/internal/machine"
	"graphmem/internal/oskernel"
	"graphmem/internal/tlb"
	"graphmem/internal/trace"
)

// TestTracerAttachMidGather is TestTracerAttachMidBulkRun's analogue for
// the gather engine: a ticker attaches the tracer in the middle of a
// long AccessGather batch, and from that access on the trace must be
// byte-identical to the scalar engine's. The gather engine flushes its
// accumulated segment state before every event dispatch and re-checks
// for a tracer afterwards, so the attach sees no in-flight state and
// the remaining batch degrades to per-access dispatch.
func TestTracerAttachMidGather(t *testing.T) {
	const attachAt = 200_000 // cycles: mid-way through the batch below

	// A neighbor-gather-shaped address vector: deterministic jumps
	// between lines of a 4MB array, each followed by a short sorted
	// same-line run.
	const batch = 1 << 17
	vas := make([]uint64, 0, batch)
	x := uint64(0x9E3779B97F4A7C15)
	for len(vas) < batch {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		off := x % (4<<20 - 64) &^ 7
		for j := uint64(0); j <= x>>61 && len(vas) < batch; j++ {
			vas = append(vas, off+j*8)
		}
	}

	run := func(gather bool) ([]trace.Event, uint64) {
		m := machine.New(machine.Config{
			MemoryBytes: 64 << 20,
			TLB:         tlb.Haswell(),
			Cache:       cache.Haswell(),
			Cost:        cost.Default(),
			Kernel:      oskernel.DefaultConfig(),
		})
		m.SetGather(gather)
		v := m.Space.Mmap("arr", 4<<20)
		m.RegisterArray(v)
		m.Touch(v.Base, v.Bytes)

		abs := make([]uint64, len(vas))
		for i, off := range vas {
			abs[i] = v.Base + off
		}

		col := &collector{}
		attached := false
		m.AddTicker(attachAt, func(now uint64) {
			if !attached {
				attached = true
				m.SetTracer(col)
			}
		})
		m.AccessGather(abs)
		return col.events, m.Cycles()
	}

	gatherEvents, gatherCycles := run(true)
	scalarEvents, scalarCycles := run(false)

	if gatherCycles != scalarCycles {
		t.Fatalf("cycles diverged: gather %d, scalar %d", gatherCycles, scalarCycles)
	}
	if len(gatherEvents) == 0 {
		t.Fatal("tracer never attached: the ticker did not fire mid-batch")
	}
	if len(gatherEvents) >= batch {
		t.Fatalf("tracer saw all %d accesses: attach was not mid-batch", len(gatherEvents))
	}
	if !reflect.DeepEqual(gatherEvents, scalarEvents) {
		t.Fatalf("traces diverged: gather %d events, scalar %d events; first gather %+v, first scalar %+v",
			len(gatherEvents), len(scalarEvents), gatherEvents[0], scalarEvents[0])
	}
}
