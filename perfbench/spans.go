package main

import (
	"encoding/json"
	"io"
	"time"
)

// span is one timed layer call of the traced run, kept in memory until the
// benchmark ends.
type span struct {
	name       string
	parent     int // index into tracer.spans; -1 for a simulation's root span
	start, end time.Duration
}

// tracer records spans around the benchmark's calls into each layer. Spans
// are appended when they begin, so the slice is in start order and every
// parent precedes its children.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do runs fn inside a span named name, a child of the innermost open span,
// and returns the span's duration.
func (t *tracer) do(name string, fn func()) time.Duration {
	id := len(t.spans)
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.t0)})
	t.open = append(t.open, id)
	defer func() {
		t.spans[id].end = time.Since(t.t0)
		t.open = t.open[:len(t.open)-1]
	}()
	fn()
	return time.Since(t.t0) - t.spans[id].start
}

// selfTimes returns each span's duration minus the part its children cover.
// Children of one span never overlap: the benchmark runs one call at a time.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// traceEvent is one Chrome trace_event "complete" slice.
type traceEvent struct {
	Name string             `json:"name"`
	Cat  string             `json:"cat"`
	Ph   string             `json:"ph"`
	TS   float64            `json:"ts"`  // µs
	Dur  float64            `json:"dur"` // µs
	PID  int                `json:"pid"`
	TID  int                `json:"tid"`
	Args map[string]float64 `json:"args"`
}

// writeTrace writes the spans as a Chrome/Perfetto trace_event document:
// one "X" slice per span on a single track, with its self time in args.
func (t *tracer) writeTrace(w io.Writer) error {
	self := t.selfTimes()
	evs := make([]traceEvent, len(t.spans))
	for i, s := range t.spans {
		evs[i] = traceEvent{
			Name: s.name, Cat: "perfbench", Ph: "X",
			TS: us(s.start), Dur: us(s.end - s.start), PID: 1, TID: 1,
			Args: map[string]float64{"self_us": us(self[i])},
		}
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}{evs})
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
