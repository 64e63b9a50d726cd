// Package sched is the deterministic parallel campaign scheduler: a
// fixed-size worker pool plus a concurrency-safe promise cache, the two
// pieces that let the experiment harness execute independent simulation
// cells (app × dataset × reorder × policy × environment) concurrently
// without touching the simulator's determinism contract.
//
// The design splits "what runs" from "what is reported":
//
//   - Each simulation cell owns its machine.Machine and is a pure
//     function of its RunSpec, so cells may execute in any order, on
//     any worker, and the cycle counts they produce are identical to a
//     single-threaded run. Nothing in this package is allowed to feed
//     scheduling state (worker ids, completion order, queue depth) back
//     into a simulation.
//
//   - Shared memoization goes through Cache, a promise cache: the first
//     requester of a key installs a promise and computes the value in
//     its own goroutine; later requesters block on that same promise
//     and receive the identical pointer. Computing in the requester's
//     goroutine (instead of enqueueing onto the pool) is what makes the
//     promise protocol deadlock-free: a worker blocked on a promise is
//     always waiting on another *running* goroutine, never on queue
//     capacity.
//
//   - Result consumption (table rendering) stays sequential and ordered
//     by the experiment registry, so campaign output is byte-identical
//     for every worker count.
//
//   - Chunks is the data-parallel loop that builds a campaign's inputs
//     (graph generation and relabeling): each chunk writes its own range
//     of a presized output, so the split cannot reach an output byte.
//
// Under `-tags simcheck` the pool and cache self-audit through
// check.Audit: task conservation (submitted = queued + active +
// completed), worker-count bounds, and promise-resolution accounting.
// See DESIGN.md §5 for the campaign protocol built on top.
package sched

import (
	"fmt"
	"sync"

	"graphmem/internal/check"
)

// Pool runs submitted tasks on a fixed set of worker goroutines. Tasks
// receive their worker's index (0..Workers-1) — for operator-facing
// progress lines only; feeding it into simulation state would break the
// determinism-under-parallelism guarantee (simlint guards the cache
// side of that contract as SL006).
//
// Submission never blocks: tasks queue without bound, which is safe
// because the campaign frontier is finite and declared up front. A Pool
// must be finished with Close; Wait may be called any number of times
// between submissions as a barrier.
type Pool struct {
	workers int

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []func(worker int)
	closed bool

	// Task conservation counters, guarded by mu:
	// submitted == len(queue) + active + completed at all times.
	submitted int
	active    int
	completed int

	inflight sync.WaitGroup // open (queued or running) tasks
	exited   sync.WaitGroup // worker goroutines
}

// NewPool starts a pool with the given number of workers (minimum 1).
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{workers: workers}
	p.cond = sync.NewCond(&p.mu)
	p.exited.Add(workers)
	for w := 0; w < workers; w++ {
		go p.worker(w)
	}
	return p
}

// Workers reports the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// Go submits one task. It panics if the pool is already closed.
func (p *Pool) Go(fn func(worker int)) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		panic(check.Failf("sched: Go on closed pool"))
	}
	p.submitted++
	p.inflight.Add(1)
	p.queue = append(p.queue, fn)
	p.cond.Signal()
	p.mu.Unlock()
}

// RunN submits fn(0) … fn(n-1) as n tasks and waits for all of them —
// one bulk-synchronous step, the shape of the sharded machine engine's
// phase barriers (core). fn receives the task index i, not the worker
// index: which worker runs which task is scheduling state and must not
// leak into simulation.
func (p *Pool) RunN(n int, fn func(i int)) {
	for i := 0; i < n; i++ {
		i := i
		p.Go(func(int) { fn(i) })
	}
	p.Wait()
}

// Wait blocks until every task submitted so far has completed, then
// audits the pool's conservation invariants (under -tags simcheck). The
// pool remains usable for further submissions.
func (p *Pool) Wait() {
	p.inflight.Wait()
	check.Audit("sched.pool", p.CheckInvariants)
}

// Close waits for all tasks, shuts the workers down, and audits. After
// Close, Go panics.
func (p *Pool) Close() {
	p.inflight.Wait()
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		p.cond.Broadcast()
	}
	p.mu.Unlock()
	p.exited.Wait()
	check.Audit("sched.pool", p.CheckInvariants)
}

func (p *Pool) worker(id int) {
	defer p.exited.Done()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.queue) == 0 {
			p.mu.Unlock()
			return
		}
		fn := p.queue[0]
		p.queue = p.queue[1:]
		p.active++
		p.mu.Unlock()

		fn(id)

		p.mu.Lock()
		p.active--
		p.completed++
		p.mu.Unlock()
		p.inflight.Done()
	}
}

// PoolStats is a snapshot of the pool's task accounting.
type PoolStats struct {
	Workers   int
	Submitted int
	Queued    int
	Active    int
	Completed int
}

// Stats returns a consistent snapshot of the pool's counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{
		Workers:   p.workers,
		Submitted: p.submitted,
		Queued:    len(p.queue),
		Active:    p.active,
		Completed: p.completed,
	}
}

// CheckInvariants verifies task conservation: every submitted task is
// queued, active, or completed; active stays within the worker count.
// It is the audit body invoked by Wait and Close under -tags simcheck,
// and is exported so tests can call it directly.
func (p *Pool) CheckInvariants() error {
	s := p.Stats()
	if s.Active < 0 || s.Active > s.Workers {
		return fmt.Errorf("active workers %d outside [0,%d]", s.Active, s.Workers)
	}
	if s.Queued+s.Active+s.Completed != s.Submitted {
		return fmt.Errorf("task conservation: queued %d + active %d + completed %d != submitted %d",
			s.Queued, s.Active, s.Completed, s.Submitted)
	}
	return nil
}

// Cache is a concurrency-safe promise cache keyed by K. The first Get
// for a key installs a promise and runs compute in the calling
// goroutine; concurrent Gets for the same key block until that compute
// returns and then observe the identical value. A key is computed at
// most once for the cache's lifetime — the concurrent generalization of
// the plain-map memoization the experiment suite used when campaigns
// were single-threaded.
//
// The zero value is ready to use.
type Cache[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*promise[V]

	// Request accounting, guarded by mu: misses is the number of
	// promises installed (== computes started), hits the number of Gets
	// that found an existing promise, and waits the subset of hits that
	// arrived before the promise resolved (true promise-protocol
	// blocking, the case the -race tests hammer).
	misses int
	hits   int
	waits  int
}

type promise[V any] struct {
	once     sync.Once
	val      V
	resolved bool // written inside once, read after Do returns or under Cache.mu
}

// Get returns the cached value for k, computing it via compute if this
// is the first request. compute runs exactly once per key; concurrent
// requesters block until it returns. compute may itself call Get with a
// *different* key (the graph cache recurses from a reordered variant to
// its base graph); a same-key reentrant Get would deadlock, as any
// self-dependent memoization must.
func (c *Cache[K, V]) Get(k K, compute func() V) V {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[K]*promise[V])
	}
	pr, ok := c.m[k]
	if ok {
		c.hits++
		if !pr.resolved {
			c.waits++
		}
	} else {
		pr = &promise[V]{}
		c.m[k] = pr
		c.misses++
	}
	c.mu.Unlock()

	pr.once.Do(func() {
		pr.val = compute()
		c.mu.Lock()
		pr.resolved = true
		c.mu.Unlock()
	})
	return pr.val
}

// Peek returns the value for k only if it has already been computed.
func (c *Cache[K, V]) Peek(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var zero V
	pr, ok := c.m[k]
	if !ok || !pr.resolved {
		return zero, false
	}
	return pr.val, true
}

// Len reports the number of resolved entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var prs []*promise[V]
	for _, pr := range c.m {
		prs = append(prs, pr)
	}
	n := 0
	for _, pr := range prs {
		if pr.resolved {
			n++
		}
	}
	return n
}

// CacheStats is a snapshot of the cache's request accounting.
type CacheStats struct {
	Entries  int // promises installed
	Resolved int // promises whose compute has returned
	Hits     int // Gets that found an existing promise
	Waits    int // hits that blocked on an unresolved promise
}

// Stats returns a consistent snapshot of the cache's counters.
func (c *Cache[K, V]) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	var prs []*promise[V]
	for _, pr := range c.m {
		prs = append(prs, pr)
	}
	s := CacheStats{Entries: len(prs), Hits: c.hits, Waits: c.waits}
	for _, pr := range prs {
		if pr.resolved {
			s.Resolved++
		}
	}
	return s
}

// CheckInvariants verifies the promise accounting: installed promises
// match recorded misses, and waits never exceed hits. With quiesced set
// (no Get in flight — the state at a campaign barrier), every installed
// promise must also be resolved: an unresolved promise with no computer
// would block every future requester forever.
func (c *Cache[K, V]) CheckInvariants(quiesced bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.m) != c.misses {
		return fmt.Errorf("promise conservation: %d entries != %d misses", len(c.m), c.misses)
	}
	if c.waits > c.hits {
		return fmt.Errorf("waits %d > hits %d", c.waits, c.hits)
	}
	if quiesced {
		var prs []*promise[V]
		for _, pr := range c.m {
			prs = append(prs, pr)
		}
		for _, pr := range prs {
			if !pr.resolved {
				return fmt.Errorf("quiesced cache holds an unresolved promise")
			}
		}
	}
	return nil
}
