package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Parent 0 is a root.
type span struct {
	id, parent int32
	cell       int32
	name       string
	start, end time.Duration // since the tracer's origin
	work       uint64        // instructions executed inside, where counted
}

// tracer keeps spans in memory until the run ends. Spans that share a
// parent must not overlap (each replay's children run one after
// another). A nil *tracer records nothing, so the untraced replay runs
// the same code with the cost of a nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)} }

// begin opens a span and returns its id (0 when untraced).
func (t *tracer) begin(name string, parent, cell int32) int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{id: int32(len(t.spans) + 1), parent: parent, cell: cell, name: name, start: time.Since(t.t0)})
	return int32(len(t.spans))
}

func (t *tracer) end(id int32) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].end = time.Since(t.t0)
	t.mu.Unlock()
}

// record adds a span from timestamps taken elsewhere (by a client
// goroutine that must not wait on the tracer while it measures).
func (t *tracer) record(name string, parent, cell int32, start, end time.Time) int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{id: int32(len(t.spans) + 1), parent: parent, cell: cell, name: name, start: start.Sub(t.t0), end: end.Sub(t.t0)})
	return int32(len(t.spans))
}

// addWork attributes executed instructions to a span.
func (t *tracer) addWork(id int32, n uint64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].work += n
	t.mu.Unlock()
}

// wrap runs fn inside a span.
func (t *tracer) wrap(name string, parent, cell int32, fn func()) {
	id := t.begin(name, parent, cell)
	fn()
	t.end(id)
}

// selfTimes returns each span's duration minus the time its children
// cover, indexed like spans. Children of one parent never overlap here
// (the replay is sequential), so subtracting their durations is exact.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent > 0 {
			self[s.parent-1] -= s.end - s.start
		}
	}
	return self
}

// writeChrome writes the spans as Chrome trace-event JSON ("X" complete
// events, one track per cell), which Perfetto and chrome://tracing open
// beside the simulator's own pipeline traces.
func (t *tracer) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	for i, s := range t.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		name, _ := json.Marshal(s.name) // a string always marshals
		fmt.Fprintf(w, `{"name":%s,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"cell":%d}}`,
			name, s.cell, us(s.start), us(s.end-s.start), s.id, s.parent, s.cell)
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// p50us returns the median of ds in microseconds and the sample count.
func p50us(ds []time.Duration) (float64, int) {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = us(d)
	}
	if len(xs) == 0 {
		return 0, 0
	}
	return median(xs), len(xs)
}

func sum(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}
