package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// own files (spans inside the program are a later issue). Parent is the
// ID of the span that caused it, -1 for a root; the spans of one op
// share Op.
type span struct {
	ID       int    `json:"id"`
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Workload string `json:"workload"`
	Op       int    `json:"op"`
	Parent   int    `json:"parent"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the benchmark ends. A nil tracer
// records nothing, which is how the end-to-end pass runs with tracing
// off.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	spans    []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (-1 when tracing is off).
func (t *tracer) begin(name, layer string, op, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Layer: layer, Workload: t.workload, Op: op, Parent: parent, StartNS: time.Since(t.t0).Nanoseconds()})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNS = now
	t.mu.Unlock()
}

// seconds returns the durations of the current workload's finished
// spans with the given name.
func (t *tracer) seconds(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.Workload == t.workload && s.EndNS > 0 {
			out = append(out, float64(s.EndNS-s.StartNS)/1e9)
		}
	}
	return out
}

// medianMS is the median duration of the named spans in milliseconds.
func (t *tracer) medianMS(name string) float64 { return median(t.seconds(name)) * 1e3 }

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
