package analytics

import (
	"runtime/debug"
	"sync/atomic"

	"graphmem/internal/check"
)

// Kernel streams (DESIGN.md §4g). A monolithic kernel does two kinds of
// work: its own native work over the graph and its value arrays (the
// hops probe, the rank scatter), and the simulated machine's work for
// every access it issues. Neither reads the other's state: while a
// stream is open the kernel reads only the immutable graph and the
// arrays' base addresses. So the kernel appends its accesses to a
// stream, and a replay goroutine feeds them to the machine, in order,
// up to streamBlocks blocks behind.
//
// A block is a fixed-size []uint64 of ops:
//
//	gather:  h, va_1 … va_h            h < runOp
//	run:     runOp|count, va, stride
//
// Every block opens with a gather header. Scalar accesses append to the
// open gather segment; a run closes it and opens the next one after
// itself, so consecutive scalar accesses and a vertex's neighbor
// accesses all land in one AccessGather call. A segment that fills its
// block is closed there and continues in the next block. None of this
// moves a simulated counter: AccessRun and AccessGather are each
// identical to their scalar Access loops (TestAccessRunMatchesScalar,
// TestAccessGatherMatchesScalar), so how the ops are cut into blocks
// and batches cannot change what the machine sees.

const (
	// streamBlockWords sizes one block (64 KB); streamBlocks blocks
	// circulate per stream (256 KB).
	streamBlockWords = 8192
	streamBlocks     = 4

	// runOp marks a run header; its low bits are the access count.
	runOp = 1 << 63
)

// sink is what a stream replays into: the image's machine, or in tests
// a machine driven one scalar Access at a time. The kernel starts the
// sink's cache stage (machine/cachestage.go) once it has begun its
// phase, and the stream stops it after the replay goroutine has exited.
type sink interface {
	AccessRun(va uint64, count int, stride uint64)
	AccessGather(vas []uint64)
	StartCacheStage()
	StopCacheStage() error
}

// stream carries one kernel's accesses from the kernel's goroutine to
// the sink. Its producer side is not safe for concurrent use.
type stream struct {
	blk []uint64 // the block being filled, len == block size
	n   int      // words of blk in use
	seg int      // index of the open gather segment's header

	dst sink

	// The replay goroutine's side. full carries filled blocks in order
	// and free returns them; both have room for every block, so neither
	// send blocks. done is closed when the goroutine exits, after it
	// stores any panic in fail.
	full   chan []uint64
	free   chan []uint64
	done   chan struct{}
	abort  atomic.Bool // the kernel failed: skip the blocks still queued
	closed bool        // full is closed (producer-owned)
	fail   any
	failAt []byte // the replay goroutine's stack at the panic
}

// newStream returns a stream of words-word blocks into dst and starts
// its replay goroutine; the caller must defer stop and finish with
// close.
func newStream(dst sink, words int) *stream {
	check.Assertf(words >= 5, "analytics: stream blocks of %d words cannot hold a run", words)
	s := &stream{
		dst: dst, blk: make([]uint64, words), n: 1,
		full: make(chan []uint64, streamBlocks),
		free: make(chan []uint64, streamBlocks),
		done: make(chan struct{}),
	}
	for range streamBlocks - 1 {
		s.free <- make([]uint64, words)
	}
	go s.replay()
	return s
}

// access appends one access at va.
func (s *stream) access(va uint64) {
	if s.n == len(s.blk) {
		s.flush()
	}
	s.blk[s.n] = va
	s.n++
}

// run appends count accesses from va, stride bytes apart.
func (s *stream) run(va uint64, count int, stride uint64) {
	if count <= 0 {
		return
	}
	if s.n+4 > len(s.blk) {
		s.flush()
	}
	s.blk[s.seg] = uint64(s.n - s.seg - 1)
	b := s.blk[s.n : s.n+3]
	b[0], b[1], b[2] = runOp|uint64(count), va, stride
	s.seg = s.n + 3
	s.n += 4
}

// flush hands the filled block to replay and opens the next one.
func (s *stream) flush() {
	s.full <- s.seal()
	select {
	case s.blk = <-s.free:
	case <-s.done:
		s.raise()
	}
	s.blk = s.blk[:cap(s.blk)]
	s.seg, s.n = 0, 1
}

// seal closes the open gather segment and returns the block's ops.
func (s *stream) seal() []uint64 {
	s.blk[s.seg] = uint64(s.n - s.seg - 1)
	return s.blk[:s.n]
}

// close replays the last block, waits for the replay goroutine to exit,
// stops the sink's cache stage, and raises the first failure of either
// goroutine, if any, on the caller. After close the machine is the
// caller's again.
func (s *stream) close() {
	s.full <- s.seal()
	close(s.full)
	s.closed = true
	<-s.done
	err := s.dst.StopCacheStage()
	if s.fail != nil {
		s.raise()
	}
	if err != nil {
		panic(check.Failf("%v", err))
	}
}

// stop ends a replay goroutine the kernel left without close — a
// kernel-side panic — skipping the blocks still queued, then stops the
// sink's cache stage. It is a no-op after close; callers defer it.
func (s *stream) stop() {
	if s.closed {
		return
	}
	s.abort.Store(true)
	close(s.full)
	s.closed = true
	<-s.done
	_ = s.dst.StopCacheStage() // a panic is already unwinding
}

// raise re-raises the replay goroutine's panic on the kernel's
// goroutine as a check.Failure: the panic's own message, then the
// replay goroutine's stack, which shows the machine frame that failed
// (the kernel's stack ends at its flush or close).
func (s *stream) raise() {
	panic(check.Failf("%v\n\nkernel stream replay goroutine:\n%s", s.fail, s.failAt))
}

// replay is the replay goroutine: it feeds each block to the sink in
// order and returns it to the producer.
func (s *stream) replay() {
	defer s.exit()
	for blk := range s.full {
		if s.abort.Load() {
			continue
		}
		replayBlock(s.dst, blk)
		s.free <- blk
	}
}

// exit records a replay panic and its stack for the producer and marks
// the goroutine done. It is deferred by replay; as a named function it
// keeps the simulation call graph free of unrelated func literals
// (SL010).
func (s *stream) exit() {
	if v := recover(); v != nil {
		s.fail, s.failAt = v, debug.Stack()
	}
	close(s.done)
}

// replayBlock feeds one block's ops to dst in order.
func replayBlock(dst sink, blk []uint64) {
	for i := 0; i < len(blk); {
		h := blk[i]
		if h&runOp != 0 {
			dst.AccessRun(blk[i+1], int(h&^runOp), blk[i+2])
			i += 3
			continue
		}
		if h > 0 {
			dst.AccessGather(blk[i+1 : i+1+int(h)])
		}
		i += 1 + int(h)
	}
}
