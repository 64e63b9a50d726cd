package sched

import (
	"runtime/debug"

	"graphmem/internal/check"
)

// Consumer applies the blocks a Ring carries, on the ring's goroutine.
type Consumer interface {
	Consume(blk []uint64)
}

// Ring carries blocks of words from one producer goroutine to a
// consumer goroutine, which applies them in order: the handoff of both
// pipeline stages beside a streamed kernel (DESIGN.md §4g). The caller
// owns the blocks. It fills blocks[0] first; Put and Sync hand a filled
// block over and return the next one to fill. full and free each have
// room for every block, so no send waits, and the producer waits only
// for a free block, while every other block is in flight.
//
// A panic on the consumer goroutine is recovered with the goroutine's
// stack. The producer's next Put or Sync raises it, and Close returns
// it, as a check.Failure whose first line is the panic's own, followed
// by the consumer's name and stack: the producer's own stack ends at
// the handoff, not at the frame that failed.
type Ring struct {
	name   string
	c      Consumer
	blocks [][]uint64

	full   chan []uint64 // filled blocks, in order
	free   chan []uint64 // applied blocks
	done   chan struct{} // closed when the consumer goroutine exits
	closed bool          // full is closed (producer-owned)
	fail   any           // the consumer's panic
	stack  []byte        // the consumer goroutine's stack at the panic
}

// ringFailure formats a consumer panic: its message, the consumer's
// name, its stack.
const ringFailure = "%v\n\n%s goroutine:\n%s"

// NewRing starts name's consumer goroutine over two or more blocks.
// The producer fills blocks[0] first and must finish with Close.
func NewRing(name string, c Consumer, blocks [][]uint64) *Ring {
	check.Assertf(len(blocks) >= 2, "sched: a ring of %d blocks", len(blocks))
	r := &Ring{
		name: name, c: c, blocks: blocks,
		full: make(chan []uint64, len(blocks)),
		free: make(chan []uint64, len(blocks)),
		done: make(chan struct{}),
	}
	for _, b := range blocks[1:] {
		r.free <- b
	}
	go r.run()
	return r
}

// Put hands blk to the consumer and returns the next block to fill, at
// its full length.
func (r *Ring) Put(blk []uint64) []uint64 {
	r.full <- blk
	select {
	case b := <-r.free:
		return b[:cap(b)]
	case <-r.done:
		r.raise()
		return nil
	}
}

// Sync hands blk to the consumer, waits until it has applied every
// block, and returns blocks[0] to fill next.
func (r *Ring) Sync(blk []uint64) []uint64 {
	r.full <- blk
	for range r.blocks {
		select {
		case <-r.free:
		case <-r.done:
			r.raise()
		}
	}
	for _, b := range r.blocks[1:] {
		r.free <- b
	}
	return r.blocks[0]
}

// Close hands blk to the consumer, waits for it to apply the blocks
// still queued and exit, and returns its panic, if any. It does nothing
// after the first Close, so a producer can defer it as cleanup after a
// panic of its own and still Close on its normal path.
func (r *Ring) Close(blk []uint64) error {
	if r.closed {
		return nil
	}
	r.closed = true
	r.full <- blk
	close(r.full)
	<-r.done
	if r.fail != nil {
		return check.Failf(ringFailure, r.fail, r.name, r.stack)
	}
	return nil
}

// raise re-raises the consumer's panic on the producer.
func (r *Ring) raise() {
	panic(check.Failf(ringFailure, r.fail, r.name, r.stack))
}

// run is the consumer goroutine: it applies each block in order and
// frees it.
func (r *Ring) run() {
	defer r.exit()
	for blk := range r.full {
		r.c.Consume(blk)
		r.free <- blk
	}
}

// exit records a consumer panic and its stack and marks the goroutine
// done. It is deferred by run; as a named function it keeps the
// simulation call graph free of unrelated func literals (SL010).
func (r *Ring) exit() {
	if v := recover(); v != nil {
		r.fail, r.stack = v, debug.Stack()
	}
	close(r.done)
}
