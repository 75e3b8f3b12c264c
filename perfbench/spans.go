package main

import (
	"encoding/json"
	"os"
	"strings"
	"time"
)

// span is one timed call into a layer's public function, recorded from
// this benchmark's side of the call. Parent is the index of the enclosing
// span (-1 for a root); Rep is the rep the call belongs to (-1 for set-up).
type span struct {
	Name       string
	Start, End time.Duration // since the tracer was created
	Parent     int
	Rep        int
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run pays one nil check per call site.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: now()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, parent, rep int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: now().Sub(t.t0), Parent: parent, Rep: rep})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = now().Sub(t.t0)
}

// durationsMs returns the host duration of every span with the given name.
func (t *tracer) durationsMs(name string) []float64 {
	var ms []float64
	if t == nil {
		return ms
	}
	for _, s := range t.spans {
		if s.Name == name {
			ms = append(ms, float64(s.End-s.Start)/1e6)
		}
	}
	return ms
}

// traceEvent is one Chrome trace-event "complete" event; timestamps are
// host microseconds, so the file loads in Perfetto like the telemetry
// exports, but on the host clock rather than the simulated one.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// write stores the spans as Chrome trace-event JSON, with the host
// fingerprint as metadata.
func (t *tracer) write(path, host string) error {
	events := make([]traceEvent, 0, len(t.spans))
	for i, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		events = append(events, traceEvent{
			Name: s.Name, Cat: layer, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]int{"id": i, "parent": s.Parent, "rep": s.Rep},
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "otherData": map[string]string{"host": host}})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// now is the benchmark's only wall-clock read.
func now() time.Time {
	return time.Now() //lint:allow walltime host-time benchmark: measures the simulator's own wall clock, never enters simulated output
}
