package analytics

import (
	"graphmem/internal/check"
	"graphmem/internal/machine"
	"graphmem/internal/sched"
)

// Kernel streams (DESIGN.md §4g). Every kernel appends its accesses to
// a stream, which feeds them to the machine in order. A monolithic
// kernel does two kinds of work: its own native work over the graph and
// its value arrays (the hops probe, the rank scatter), and the simulated
// machine's work for every access it issues. Neither reads the other's
// state: while a stream is open the kernel reads only the immutable
// graph and the arrays' base addresses. So its stream has a replay
// goroutine that feeds the blocks to the machine up to streamBlocks
// blocks behind. A shard worker's stream is inline: each full block
// replays on the worker's own goroutine, since the shard workers
// already fill GOMAXPROCS.
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
	// circulate per replayed stream (256 KB).
	streamBlockWords = 8192
	streamBlocks     = 4

	// runOp marks a run header; its low bits are the access count.
	runOp = 1 << 63
)

// sink is what a stream replays into: the image's machine, a traced
// kernel's traceSink, or in tests a machine driven one scalar Access at
// a time. A monolithic kernel
// starts the sink's cache stage (machine/cachestage.go) once it has
// begun its phase, and the stream stops it after the replay goroutine
// has exited.
type sink interface {
	AccessRun(va uint64, count int, stride uint64)
	AccessGather(vas []uint64)
	StartCacheStage()
	StopCacheStage() error
}

// Tracer receives the accesses of a traced kernel (Image.RunTraced):
// each access's virtual address and the StatsTag of the array it falls
// in, 0xFF when that is untagged or beyond a byte. It is called on the
// replay goroutine, one access at a time.
type Tracer interface{ Trace(va uint64, tag uint8) }

// traceSink is a traced kernel's sink: the image's machine, with each
// op's addresses handed to t before the op is forwarded to it.
type traceSink struct {
	*machine.Machine
	t Tracer
}

func (s traceSink) AccessRun(va uint64, count int, stride uint64) {
	for i, a := 0, va; i < count; i, a = i+1, a+stride {
		s.trace(a)
	}
	s.Machine.AccessRun(va, count, stride)
}

func (s traceSink) AccessGather(vas []uint64) {
	for _, va := range vas {
		s.trace(va)
	}
	s.Machine.AccessGather(vas)
}

func (s traceSink) trace(va uint64) {
	tag := uint8(0xFF)
	if v := s.Space.FindVMA(va); v != nil && v.StatsTag >= 0 && v.StatsTag < 0xFF {
		tag = uint8(v.StatsTag)
	}
	s.t.Trace(va, tag)
}

// stream carries one kernel's accesses from the kernel's goroutine to
// the sink. Its producer side is not safe for concurrent use.
type stream struct {
	blk []uint64 // the block being filled, len == block size
	n   int      // words of blk in use
	seg int      // index of the open gather segment's header

	dst  sink
	ring *sched.Ring // to the replay goroutine; nil: inline
}

// newStream returns a stream of words-word blocks into dst. With one
// block it is inline: each full block replays on the producer's
// goroutine, and the producer flushes the last one. With more, a replay
// goroutine replays them; the caller must defer stop and finish with
// close.
func newStream(dst sink, words, blocks int) *stream {
	check.Assertf(words >= 5, "analytics: stream blocks of %d words cannot hold a run", words)
	mem := make([][]uint64, blocks)
	for i := range mem {
		mem[i] = make([]uint64, words)
	}
	s := &stream{dst: dst, blk: mem[0], n: 1}
	if blocks > 1 {
		s.ring = sched.NewRing("kernel stream replay", s, mem)
	}
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

// flush hands the filled block to the replay goroutine, or replays it
// inline, and opens the next one.
func (s *stream) flush() {
	if s.ring != nil {
		s.blk = s.ring.Put(s.seal())
	} else {
		s.Consume(s.seal())
	}
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
	err := s.ring.Close(s.seal())
	if serr := s.dst.StopCacheStage(); err == nil {
		err = serr
	}
	if err != nil {
		panic(check.Failf("%v", err))
	}
}

// stop ends a replay goroutine the kernel left without close — a
// kernel-side panic — once it has replayed the blocks still queued,
// then stops the sink's cache stage. It is a no-op after close; callers
// defer it.
func (s *stream) stop() {
	_ = s.ring.Close(s.blk[:0])
	_ = s.dst.StopCacheStage() // a panic is already unwinding
}

// Consume feeds one block's ops to the sink in order: the replay
// goroutine's work, or the producer's on an inline stream. It reads
// s.dst once a block: the kernel writes s.n beside it on every access.
func (s *stream) Consume(blk []uint64) {
	dst := s.dst
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
