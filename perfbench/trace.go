package main

import (
	"sort"
	"sync"
	"time"

	"podium/internal/stats"
)

// span is one timed call into a layer. Spans live in memory until the
// replay ends; parent is the enclosing span's index, or -1 for a root.
type span struct {
	name       string
	parent     int
	start, end time.Duration
}

// tracer records spans from the benchmark's own code around each call into
// a layer; nothing inside the program is instrumented. A disabled tracer
// records nothing, which is how the replay measures its own overhead.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if !t.on {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, start: now, end: -1})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// do runs f inside a span named name.
func (t *tracer) do(name string, parent int, f func(id int)) {
	id := t.begin(name, parent)
	f(id)
	t.end(id)
}

// layerTime is one layer's aggregated spans.
type layerTime struct {
	calls int
	// self holds each call's self time in seconds: its span minus the part
	// of that interval its child spans cover.
	self []float64
	// total holds each call's whole span in seconds.
	total []float64
}

func (l *layerTime) meanSelf() float64  { return stats.Mean(l.self) }
func (l *layerTime) meanTotal() float64 { return stats.Mean(l.total) }

// layers aggregates the recorded spans by name.
func (t *tracer) layers() map[string]*layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := map[string]*layerTime{}
	for i, s := range t.spans {
		l := out[s.name]
		if l == nil {
			l = &layerTime{}
			out[s.name] = l
		}
		total := s.end - s.start
		l.calls++
		l.total = append(l.total, total.Seconds())
		l.self = append(l.self, (total - t.covered(s, children[i])).Seconds())
	}
	return out
}

// covered is the length of the union of the child intervals within s.
// Children may overlap (concurrent shard legs), so they are merged first.
func (t *tracer) covered(s span, kids []int) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := t.spans[k].start, t.spans[k].end
		if a < s.start {
			a = s.start
		}
		if b > s.end {
			b = s.end
		}
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum time.Duration
	var cur [2]time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > cur[1] {
			sum += cur[1] - cur[0]
			cur = x
			continue
		}
		if x[1] > cur[1] {
			cur[1] = x[1]
		}
	}
	return sum + cur[1] - cur[0]
}
