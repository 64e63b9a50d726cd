//simlint:fastpath

package machine

import (
	"graphmem/internal/cache"
	"graphmem/internal/memsys"
)

// AccessRun simulates count data accesses starting at va and advancing
// by stride bytes each time — the shape of every streaming scan the
// graph kernels issue (CSR offset pairs, edge-array neighbor runs,
// sequential property sweeps). It is arithmetically identical to
//
//	for ; count > 0; count-- { m.Access(va); va += stride }
//
// in every observable: Cycles, phase stats, heat, per-array attribution,
// TLB/cache counters and LRU state, event dispatch, and traces. The bulk
// engine merely exploits what the scalar loop would rediscover one
// access at a time: consecutive same-page references are L1 TLB hits
// after the first, and consecutive same-line references are L1 data hits
// after the first, so their per-access work reduces to counter
// arithmetic (DESIGN.md §4c).
//
// The run is cut into page segments (one real TLB resolution each) and,
// inside a segment, line batches (one real data-cache probe each, the
// line's remaining accesses charged as guaranteed L1 hits). Segments
// split exactly where the scalar loop would change behaviour:
//
//   - translation-cache miss (page boundary, fault, shootdown): the
//     split access goes through the scalar path;
//   - the nextEvent cycle deadline: the batch is truncated to the access
//     that first reaches the deadline, accumulated accounting is flushed,
//     and events run at the same cycle the scalar loop would run them;
//   - a tracer attached: per-access dispatch so traces stay
//     byte-identical. Re-checked after every event dispatch, so a ticker
//     attaching a tracer mid-run degrades the rest of the run; flushing
//     before runEvents means no bulk state is in flight when it does.
func (m *Machine) AccessRun(va uint64, count int, stride uint64) {
	for count > 0 {
		// Per-access dispatch when batching is off or unsound: bulk
		// disabled, degenerate stride, a tracer attached, or a
		// zero-cost hit model (the event-split division needs cHit > 0).
		if m.noBulk || stride == 0 || m.tracer != nil || m.Model.L1DHit+m.Model.Compute == 0 {
			for ; count > 0; count-- {
				m.Access(va) //simlint:ignore SL012 scalar fallback; Access waives its own fault/event escapes
				va += stride
			}
			return
		}
		// Scalar dispatch for any access the bulk engine cannot batch:
		// a translation-cache miss (unmapped/faulting page, shootdown),
		// a due or stale event deadline (a mode-disabled kernel keeps
		// its deadline in the past so Tick runs per access), or an L1
		// TLB array with no capacity for this page size.
		if va-m.trBase >= m.trSpan || m.cycles >= m.nextEvent || !m.TLB.L1Holds(m.tr.Size) {
			m.Access(va) //simlint:ignore SL012 scalar fallback; Access waives its own fault/event escapes
			va += stride
			count--
			continue
		}
		va, count = m.bulkSegment(va, count, stride) //simlint:ignore SL012 segment body allocates only via waived event dispatch
	}
}

// bulkSegment batches accesses while they stay inside the translation
// cache's current page, returning the updated (va, count). The caller
// established: bulk enabled, no tracer, stride > 0, va inside the
// cached page, L1 TLB capacity for its size, and cycles < nextEvent.
func (m *Machine) bulkSegment(va uint64, count int, stride uint64) (uint64, int) {
	// The segment's first access takes the full scalar path: it does
	// the real TLB lookup — installing (or refreshing) L1 residency the
	// rest of the segment relies on — the real data-cache probe, and
	// any due event dispatch.
	m.Access(va) //simlint:ignore SL012 segment head takes the scalar path; escapes waived in Access
	va += stride
	count--
	// Re-establish the batching preconditions: the event dispatch inside
	// Access may have shot down the translation, attached a tracer,
	// or left a stale deadline.
	if count == 0 || va-m.trBase >= m.trSpan || m.cycles >= m.nextEvent || m.tracer != nil {
		return va, count
	}

	// From here until the segment ends, every access hits the page's L1
	// TLB entry, stays within the same heat bucket (pages never span the
	// VMA's 2MB regions), and costs cHit cycles on a same-line hit. Real
	// work per iteration is one data-cache probe per line; everything
	// else accumulates into done/data and flushes at the split.
	base, span := m.trBase, m.trSpan
	paDelta := uint64(m.tr.Frame)<<memsys.PageShift - m.tr.BaseVA
	cHit := m.Model.L1DHit + m.Model.Compute
	st := m.handoff // the cache stage probes go to, or nil: inline
	var done, data uint64
	lineVA := va - stride // last probed address: its line is L1-resident

	for count > 0 && va-base < span {
		if va>>cache.LineShift == lineVA>>cache.LineShift {
			// Same line as the last real probe: guaranteed L1 hits.
			lineEnd := (va | (1<<cache.LineShift - 1)) + 1
			n := (lineEnd-va-1)/stride + 1
			if uint64(count) < n {
				n = uint64(count)
			}
			// Truncate the batch at the event deadline: the t-th hit is
			// the first access at which cycles reaches nextEvent, exactly
			// where the scalar loop would dispatch. The divide only runs
			// when the deadline lands inside this batch
			// (gap ≤ (n−1)·cHit ⇔ ceil(gap/cHit) < n; the ceil == n case
			// was a no-op truncation), keeping the common path
			// division-free.
			gap := m.nextEvent - m.cycles // > 0: loop invariant
			if gap <= (n-1)*cHit {
				n = (gap-1)/cHit + 1
			}
			if st != nil {
				st.repeat(va+paDelta, n)
			} else {
				m.Cache.AccessRepeatL1(va+paDelta, n)
			}
			m.cycles += n * cHit
			done += n
			data += n * cHit
			va += n * stride
			count -= int(n)
			if m.cycles >= m.nextEvent {
				m.flushBulk(done, data)
				m.atDeadline() //simlint:ignore SL012 due-event dispatch; registered tickers own their allocation budget
				return va, count
			}
			continue
		}
		// First access on a new line: real data-cache probe (the fill
		// makes the line resident for the batch above), handed off or
		// inline. Translation is still a guaranteed L1 TLB hit, so the
		// access costs data only.
		lineVA = va
		var d uint64
		if st != nil {
			st.probe(va + paDelta)
			d = st.cMax
		} else {
			d = m.dataCycles(m.Cache.Access(va + paDelta))
		}
		m.cycles += d
		done++
		data += d
		va += stride
		count--
		if m.cycles >= m.nextEvent {
			m.flushBulk(done, data)
			m.atDeadline() //simlint:ignore SL012 due-event dispatch; registered tickers own their allocation budget
			return va, count
		}
	}
	m.flushBulk(done, data)
	return va, count
}

// flushBulk applies a segment's accumulated accounting — the per-access
// increments the scalar loop interleaves — before anything can observe
// it: always before runEvents (khugepaged reads heat; shootdowns follow
// the refreshes, as they do scalar) and before bulkSegment returns. All
// done accesses were translation L1 hits on the page's entry and data
// hits/probes whose cycles are in data; m.cycles itself was advanced as
// the batches were charged, so only the phase mirror is added here.
func (m *Machine) flushBulk(done, data uint64) {
	if done == 0 {
		return
	}
	tr := &m.tr
	m.TLB.LookupRepeatHit(tr.BaseVA, tr.Size, done)
	v := tr.VMA
	v.AddHeat(int((tr.BaseVA-v.Base)>>21), done)
	if tag := v.StatsTag; tag >= 0 {
		m.arrays[tag].Accesses += done
	}
	m.phase.DataCycles += data
	m.phase.Cycles += data
	m.phase.Accesses += done
}
