//simlint:fastpath

package machine

import (
	"graphmem/internal/cache"
	"graphmem/internal/memsys"
)

// AccessGather simulates one data memory access per address in vas, in
// slice order — the shape of every irregular, data-dependent stream the
// graph kernels issue (property reads for a vertex's neighbors, frontier
// writes, relaxation scatters). It is arithmetically identical to
//
//	for _, va := range vas { m.Access(va) }
//
// in every observable: Cycles, phase stats, heat, per-array attribution,
// TLB/cache counters and LRU state, event dispatch, and traces. Where
// AccessRun exploits a constant stride, the gather engine exploits the
// locality irregular batches still carry: power-law neighbor lists
// revisit a few hot property pages (amplified by DBG reordering), and
// sorted or near-sorted neighbor runs land on the same cache line. A
// run of same-page references is n−1 guaranteed L1 TLB hits after the
// first, and a run of same-line references is n−1 guaranteed L1 data
// hits after the first, so — exactly as in the bulk engine — their
// per-access work reduces to counter arithmetic (DESIGN.md §4e).
//
// The batch is cut into page segments (addresses batched while they stay
// on the primary translation-cache page; one real TLB resolution each)
// and, inside a segment, line runs (one real data-cache probe per line,
// the consecutive same-line accesses after it charged as guaranteed L1
// hits). Segments split exactly where the scalar loop would change
// behaviour:
//
//   - translation-cache miss (new page, fault, shootdown): the split
//     access goes through the scalar path, which refills the cache —
//     probing the page-indexed tables (access_slow.go) before walking —
//     and services any fault at the same cycle the scalar loop would;
//   - the nextEvent cycle deadline: the line run is truncated to the
//     access that first reaches the deadline, accumulated accounting is
//     flushed, and events run at the same cycle the scalar loop would
//     run them;
//   - a tracer attached: per-access dispatch so traces stay
//     byte-identical. Re-checked after every event dispatch, so a ticker
//     attaching a tracer mid-batch degrades the rest of the batch;
//     flushing before runEvents means no gather state is in flight when
//     it does.
//
// GRAPHMEM_NO_GATHER=1 or SetGather(false) degrade the whole batch to
// scalar dispatch; the CI gate diffs a campaign run both ways.
func (m *Machine) AccessGather(vas []uint64) {
	i, n := 0, len(vas)
	for i < n {
		// Per-batch dispatch when batching is off or unsound: gather
		// disabled, a tracer attached, or a zero-cost hit model (the
		// event-split division needs cHit > 0).
		if m.noGather || m.tracer != nil || m.Model.L1DHit+m.Model.Compute == 0 {
			m.accessEach(vas[i:]) //simlint:ignore SL012 per-batch fallback; Access waives its own fault/event escapes
			return
		}
		// Scalar dispatch for any access the gather engine cannot
		// batch: a translation-cache miss (new page, unmapped/faulting
		// page, shootdown), a due or stale event deadline (a
		// mode-disabled kernel keeps its deadline in the past so Tick
		// runs per access), or an L1 TLB array with no capacity for
		// this page size.
		if vas[i]-m.trBase >= m.trSpan || m.cycles >= m.nextEvent || !m.TLB.L1Holds(m.tr.Size) {
			m.Access(vas[i]) //simlint:ignore SL012 scalar fallback; Access waives its own fault/event escapes
			i++
			continue
		}
		i = m.gatherSegment(vas, i) //simlint:ignore SL012 segment body allocates only via waived event dispatch
	}
}

// gatherSegment batches accesses from vas[i:] while they stay inside the
// translation cache's current page, returning the index of the first
// unprocessed address. The caller established: gather enabled, no
// tracer, vas[i] inside the cached page, L1 TLB capacity for its
// size, and cycles < nextEvent.
func (m *Machine) gatherSegment(vas []uint64, i int) int {
	// The segment's first access takes the full scalar path: it does
	// the real TLB lookup — installing (or refreshing) L1 residency the
	// rest of the segment relies on — the real data-cache probe, and
	// any due event dispatch.
	m.Access(vas[i]) //simlint:ignore SL012 segment head takes the scalar path; escapes waived in Access
	i++
	n := len(vas)
	// Re-establish the batching preconditions: the event dispatch inside
	// Access may have shot down the translation, attached a tracer,
	// or left a stale deadline.
	if i == n || vas[i]-m.trBase >= m.trSpan || m.cycles >= m.nextEvent || m.tracer != nil {
		return i
	}

	// From here until the segment ends, every access hits the page's L1
	// TLB entry, stays within the same heat bucket (pages never span the
	// VMA's 2MB regions), and costs cHit cycles on a same-line hit. Real
	// work per iteration is one data-cache probe per line; everything
	// else accumulates into done/data and flushes at the split.
	base, span := m.trBase, m.trSpan
	paDelta := uint64(m.tr.Frame)<<memsys.PageShift - m.tr.BaseVA
	cHit := m.Model.L1DHit + m.Model.Compute
	// cycles and the event deadline live in locals for the duration of
	// the loop: nothing called from it reads them (the Hierarchy knows
	// nothing of machine time), so they write back only where control
	// leaves — before flushBulk, whose events must see true time.
	cyc, deadline := m.cycles, m.nextEvent
	st := m.handoff // the cache stage probes go to, or nil: inline
	var done, data uint64
	// The last probed address: its line is L1-resident. Each loop trip
	// charges that line's same-line followers first (a line never spans a
	// page, so same line as an in-span address implies in-span), then does
	// the real probe for the next new line.
	lineVA := vas[i-1]
	line := lineVA >> cache.LineShift

	for {
		if i < n && vas[i]>>cache.LineShift == line {
			// Consecutive addresses on the last probed line: guaranteed
			// L1 hits. Unlike the strided engine the run length is not
			// arithmetic — scan ahead for where the batch leaves the
			// line.
			j := i + 1
			for j < n && vas[j]>>cache.LineShift == line {
				j++
			}
			k := uint64(j - i)
			// Truncate the run at the event deadline: the t-th hit is
			// the first access at which cycles reaches nextEvent,
			// exactly where the scalar loop would dispatch. The divide
			// only runs when the deadline lands inside this run
			// (gap ≤ (k−1)·cHit ⇔ ceil(gap/cHit) < k), keeping the
			// common path division-free.
			gap := deadline - cyc // > 0: loop invariant
			if gap <= (k-1)*cHit {
				k = (gap-1)/cHit + 1
			}
			if st != nil {
				st.repeat(lineVA+paDelta, k)
			} else {
				m.Cache.AccessRepeatL1(lineVA+paDelta, k)
			}
			cyc += k * cHit
			done += k
			data += k * cHit
			i += int(k)
			if cyc >= deadline {
				m.cycles = cyc
				m.flushBulk(done, data)
				m.atDeadline() //simlint:ignore SL012 due-event dispatch; registered tickers own their allocation budget
				return i
			}
		}
		if i == n {
			break
		}
		va := vas[i]
		if va-base >= span {
			break
		}
		// First access on a new line: real data-cache probe (the fill
		// makes the line resident for the run above), handed off or
		// inline. Translation is still a guaranteed L1 TLB hit, so the
		// access costs data only.
		lineVA = va
		line = va >> cache.LineShift
		var d uint64
		if st != nil {
			st.probe(va + paDelta)
			d = st.cMax
		} else {
			d = m.dataCycles(m.Cache.Access(va + paDelta))
		}
		cyc += d
		done++
		data += d
		i++
		if cyc >= deadline {
			m.cycles = cyc
			m.flushBulk(done, data)
			m.atDeadline() //simlint:ignore SL012 due-event dispatch; registered tickers own their allocation budget
			return i
		}
	}
	m.cycles = cyc
	m.flushBulk(done, data)
	return i
}
