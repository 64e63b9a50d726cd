package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer of the simulator, recorded by the
// benchmark around the public function it calls. Parent 0 marks a root.
// Times are seconds since the tracer was created.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Cell   string  `json:"cell,omitempty"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory until the run ends. Every timer measures
// its duration, because the end-to-end metrics need those durations;
// only an enabled tracer also records spans, so an untraced run does no
// span bookkeeping at all. cost is the time spent in that bookkeeping,
// reported as the tracing overhead.
type tracer struct {
	on    bool
	epoch time.Time

	mu    sync.Mutex
	spans []span
	cost  time.Duration
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// timer is an open span.
type timer struct {
	tr    *tracer
	id    int
	began time.Time
}

// start opens a span under parent (0 for a root).
func (t *tracer) start(name, cell string, parent int) timer {
	now := time.Now()
	tm := timer{tr: t, began: now}
	if t.on {
		t.mu.Lock()
		tm.id = len(t.spans) + 1
		t.spans = append(t.spans, span{ID: tm.id, Parent: parent, Name: name, Cell: cell, Start: t.since(now)})
		t.cost += time.Since(now)
		t.mu.Unlock()
	}
	return tm
}

// stop closes the span and returns its duration in seconds.
func (tm timer) stop() float64 {
	now := time.Now()
	if t := tm.tr; t.on {
		t.mu.Lock()
		t.spans[tm.id-1].End = t.since(now)
		t.cost += time.Since(now)
		t.mu.Unlock()
	}
	return now.Sub(tm.began).Seconds()
}

// add records a span whose bounds were observed rather than bracketed,
// such as a campaign cell delimited by two progress callbacks.
func (t *tracer) add(name, cell string, parent int, from, to time.Time) {
	if !t.on {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Cell: cell, Start: t.since(from), End: t.since(to)})
	t.cost += time.Since(now)
	t.mu.Unlock()
}

func (t *tracer) since(at time.Time) float64 { return at.Sub(t.epoch).Seconds() }

// closeOpen ends the spans a failed cell left open, so the tree stays
// well formed.
func (t *tracer) closeOpen() {
	end := t.since(time.Now())
	for i := range t.spans {
		if t.spans[i].End == 0 {
			t.spans[i].End = end
		}
	}
}

// selfTimes returns, for each span, its duration minus the part of its
// interval that its children cover. Children that overlap each other
// (parallel campaign workers) are counted once.
func selfTimes(spans []span) []float64 {
	kids := make([][]span, len(spans)+1)
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] = (s.End - s.Start) - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of kids' intervals clipped to p.
func covered(p span, kids []span) float64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, from, to float64
	open := false
	for _, k := range kids {
		s, e := max(k.Start, p.Start), min(k.End, p.End)
		if e <= s {
			continue
		}
		if open && s <= to {
			to = max(to, e)
			continue
		}
		if open {
			total += to - from
		}
		from, to, open = s, e, true
	}
	if open {
		total += to - from
	}
	return total
}
