package main

import (
	"strings"
	"time"
)

// span is one call into a library layer, recorded by the benchmark around a
// public call. Start and End are offsets from the tracer's creation; Parent
// is the enclosing span's ID, 0 for a root.
type span struct {
	ID, Parent int
	Name       string
	Start, End int64
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// layer is the module a span's name belongs to: the text before the dot.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps spans in memory for the whole run. The benchmark is a single
// closed-loop client, so spans open and close on one goroutine and a stack
// gives each span its parent. A nil tracer records nothing.
type tracer struct {
	t0    time.Time
	stack []int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, id)
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.stack) - 1
	t.spans[t.stack[n]-1].End = int64(time.Since(t.t0))
	t.stack = t.stack[:n]
}

// do runs fn inside a span named name.
func (t *tracer) do(name string, fn func()) {
	t.begin(name)
	fn()
	t.end()
}

// spanStats aggregates spans by name and self time by layer.
type spanStats struct {
	calls map[string]int
	total map[string]time.Duration
	// self is each layer's span time minus the time its child spans cover.
	self map[string]time.Duration
}

// aggregate summarises the spans under roots named root: "op" for timed
// ops, "probe" for the untimed probes, "setup" for set-ups, and "" for all.
func (t *tracer) aggregate(root string) spanStats {
	st := spanStats{calls: map[string]int{}, total: map[string]time.Duration{}, self: map[string]time.Duration{}}
	if t == nil {
		return st
	}
	rootOf := make([]string, len(t.spans)+1)
	child := make([]time.Duration, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent == 0 {
			rootOf[s.ID] = s.Name
		} else {
			rootOf[s.ID] = rootOf[s.Parent]
			child[s.Parent] += s.dur()
		}
	}
	for _, s := range t.spans {
		if root != "" && rootOf[s.ID] != root {
			continue
		}
		st.calls[s.Name]++
		st.total[s.Name] += s.dur()
		st.self[s.layer()] += s.dur() - child[s.ID]
	}
	return st
}

// meanMs is the mean duration of one call of the named span in ms, 0 when
// the workload never makes that call.
func (st spanStats) meanMs(name string) float64 {
	n := st.calls[name]
	if n == 0 {
		return 0
	}
	return ms(st.total[name]) / float64(n)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
