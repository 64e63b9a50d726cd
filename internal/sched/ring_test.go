package sched

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"graphmem/internal/check"
)

// tally is a test consumer: it records every word it is handed, counts
// the blocks it has applied, and panics on the word poison (0: never).
// With gate set, each block waits for a receive from it first.
type tally struct {
	words   []uint64
	applied atomic.Int64
	poison  uint64
	gate    chan struct{}
}

func (c *tally) Consume(blk []uint64) {
	if c.gate != nil {
		<-c.gate
	}
	for _, w := range blk {
		if w == c.poison && w != 0 {
			panic(fmt.Sprintf("tally: poisoned word %d", w))
		}
		c.words = append(c.words, w)
	}
	c.applied.Add(1)
}

// newTestRing returns a ring of n blocks of words words into c.
func newTestRing(c Consumer, n, words int) (*Ring, []uint64) {
	blocks := make([][]uint64, n)
	for i := range blocks {
		blocks[i] = make([]uint64, words)
	}
	return NewRing("tally", c, blocks), blocks[0]
}

// produce fills blocks with the words 1..count in order, handing each
// full block over with Put; it returns the open block's filled words.
func produce(r *Ring, blk []uint64, count int) []uint64 {
	n := 0
	for w := 1; w <= count; w++ {
		if n == len(blk) {
			blk, n = r.Put(blk), 0
		}
		blk[n] = uint64(w)
		n++
	}
	return blk[:n]
}

// settledGoroutines waits briefly for goroutines that have signalled
// their exit to finish it, and returns the count.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200 && n > want; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestRingAppliesInOrder: every word handed over reaches the consumer
// once, in order, through partial and full blocks, and Close leaves no
// goroutine behind.
func TestRingAppliesInOrder(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, c := range []struct{ blocks, words, count int }{{2, 1, 50}, {3, 7, 1000}, {4, 64, 10_000}, {4, 64, 0}} {
		cons := &tally{}
		r, blk := newTestRing(cons, c.blocks, c.words)
		if err := r.Close(produce(r, blk, c.count)); err != nil {
			t.Fatal(err)
		}
		if err := r.Close(nil); err != nil {
			t.Fatalf("a second Close returned %v", err)
		}
		if len(cons.words) != c.count {
			t.Fatalf("%+v: consumer got %d words, want %d", c, len(cons.words), c.count)
		}
		for i, w := range cons.words {
			if w != uint64(i+1) {
				t.Fatalf("%+v: word %d is %d, want %d", c, i, w, i+1)
			}
		}
	}
	if n := settledGoroutines(before); n > before {
		t.Fatalf("%d goroutines after Close, %d before", n, before)
	}
}

// TestRingSyncWaits: Sync returns only once the consumer has applied
// every block handed over, the one it carries included, and hands back
// blocks[0]; the ring goes on working after it.
func TestRingSyncWaits(t *testing.T) {
	cons := &tally{gate: make(chan struct{})}
	blocks := [][]uint64{make([]uint64, 2), make([]uint64, 2), make([]uint64, 2)}
	r := NewRing("tally", cons, blocks)
	blk := blocks[0]
	blk[0], blk[1] = 1, 2
	blk = r.Put(blk)
	blk[0], blk[1] = 3, 4
	blk = r.Put(blk)
	blk[0] = 5
	synced := make(chan []uint64)
	go func() { synced <- r.Sync(blk[:1]) }()
	select {
	case <-synced:
		t.Fatal("Sync returned while the consumer had applied no block")
	case <-time.After(20 * time.Millisecond):
	}
	close(cons.gate)
	got := <-synced
	if n := cons.applied.Load(); n != 3 {
		t.Fatalf("Sync returned after %d of 3 blocks were applied", n)
	}
	if &got[0] != &blocks[0][0] || len(got) != 2 {
		t.Fatal("Sync did not hand back blocks[0] at its full length")
	}
	if err := r.Close(append(got[:0], 6)); err != nil {
		t.Fatal(err)
	}
	if want := []uint64{1, 2, 3, 4, 5, 6}; fmt.Sprint(cons.words) != fmt.Sprint(want) {
		t.Fatalf("consumer got %v, want %v", cons.words, want)
	}
}

// TestRingConsumerPanic: a consumer panic reaches the producer at its
// next Put or Sync, or from Close when no handoff follows it, as a
// check.Failure whose first line is the panic's own and whose text
// names the consumer and holds the frame that failed; Close returns the
// same failure, and no goroutine is left behind.
func TestRingConsumerPanic(t *testing.T) {
	const poison = 700
	before := runtime.NumGoroutine()
	check1 := func(name string, v any) string {
		t.Helper()
		fail, ok := v.(check.Failure)
		if !ok {
			t.Fatalf("%s: got %T %v, want a check.Failure", name, v, v)
		}
		msg := fail.Error()
		if line, _, _ := strings.Cut(msg, "\n"); line != fmt.Sprintf("tally: poisoned word %d", poison) {
			t.Fatalf("%s: first line %q, want the consumer's panic", name, line)
		}
		if !strings.Contains(msg, "tally goroutine:") || !strings.Contains(msg, "sched.(*tally).Consume") {
			t.Fatalf("%s: the failure does not carry the consumer's name and stack:\n%s", name, msg)
		}
		return msg
	}
	for _, c := range []struct {
		name string
		run  func(r *Ring, blk []uint64) (raised any)
	}{
		{"Put", func(r *Ring, blk []uint64) any {
			return catchPanic(func() { produce(r, blk, 100_000) })
		}},
		{"Sync", func(r *Ring, blk []uint64) any {
			return catchPanic(func() { r.Sync(produce(r, blk, poison)) })
		}},
		{"Close", func(r *Ring, blk []uint64) any {
			_ = produce(r, blk, poison-1)
			return nil
		}},
	} {
		r, blk := newTestRing(&tally{poison: poison}, 4, 16)
		var raised string
		if v := c.run(r, blk); c.name != "Close" {
			raised = check1(c.name, v)
		}
		err := r.Close([]uint64{poison})
		if err == nil {
			t.Fatalf("%s: Close returned no failure", c.name)
		}
		if msg := check1(c.name+" then Close", err); raised != "" && msg != raised {
			t.Fatalf("%s: Close returned a different failure:\n%s\nraised:\n%s", c.name, msg, raised)
		}
	}
	if n := settledGoroutines(before); n > before {
		t.Fatalf("%d goroutines after the failed rings, %d before", n, before)
	}
}

// catchPanic runs f and returns what it panicked with, or nil.
func catchPanic(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}
