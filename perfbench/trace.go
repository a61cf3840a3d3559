package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one traced interval. Times are nanoseconds since the tracer
// started; parent is the index of the enclosing span, or −1.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Round  int    `json:"round"`
}

// tracer keeps spans in memory. begin and end nest: a span begun while
// another is open becomes its child. The span slice is preallocated so that
// recording allocates nothing in the common case.
type tracer struct {
	t0    time.Time
	round int
	spans []span
	open  []int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14), open: make([]int, 0, 16)}
}

func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Round: t.round})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// do runs f inside a span.
func (t *tracer) do(name string, f func()) {
	id := t.begin(name)
	f()
	t.end(id)
}

// selfTimes returns, per span, its duration minus the time its children
// cover, in seconds.
func (t *tracer) selfTimes() []float64 {
	self := make([]float64, len(t.spans))
	for i, s := range t.spans {
		self[i] += float64(s.End-s.Start) / 1e9
		if s.Parent >= 0 {
			self[s.Parent] -= float64(s.End-s.Start) / 1e9
		}
	}
	return self
}

// write stores the spans as JSON under dir.
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}
