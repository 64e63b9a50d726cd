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

// TestTracerAttachMidBulkRun is the regression test for a tracer
// attaching during an in-flight bulk segment: a ticker attaches the
// tracer in the middle of a long AccessRun, and from that access on the
// trace must be byte-identical to the scalar engine's. The bulk engine
// flushes its accumulated segment state before every event dispatch and
// re-checks for a tracer afterwards, so the attach sees no in-flight
// state and the remaining accesses dispatch per access.
func TestTracerAttachMidBulkRun(t *testing.T) {
	const attachAt = 200_000 // cycles: mid-way through the bulk run below

	run := func(bulk bool) ([]trace.Event, uint64) {
		m := machine.New(machine.Config{
			MemoryBytes: 64 << 20,
			TLB:         tlb.Haswell(),
			Cache:       cache.Haswell(),
			Cost:        cost.Default(),
			Kernel:      oskernel.DefaultConfig(),
		})
		m.SetBulk(bulk)
		v := m.Space.Mmap("arr", 4<<20)
		m.RegisterArray(v)
		m.Touch(v.Base, v.Bytes)

		col := &collector{}
		attached := false
		m.AddTicker(attachAt, func(now uint64) {
			if !attached {
				attached = true
				m.SetTracer(col)
			}
		})
		m.AccessRun(v.Base, 1<<19, 4) // one long sequential stream
		return col.events, m.Cycles()
	}

	bulkEvents, bulkCycles := run(true)
	scalarEvents, scalarCycles := run(false)

	if bulkCycles != scalarCycles {
		t.Fatalf("cycles diverged: bulk %d, scalar %d", bulkCycles, scalarCycles)
	}
	if len(bulkEvents) == 0 {
		t.Fatal("tracer never attached: the ticker did not fire mid-run")
	}
	if len(bulkEvents) >= 1<<19 {
		t.Fatalf("tracer saw all %d accesses: attach was not mid-run", len(bulkEvents))
	}
	if !reflect.DeepEqual(bulkEvents, scalarEvents) {
		t.Fatalf("traces diverged: bulk %d events, scalar %d events; first bulk %+v, first scalar %+v",
			len(bulkEvents), len(scalarEvents), bulkEvents[0], scalarEvents[0])
	}
}
