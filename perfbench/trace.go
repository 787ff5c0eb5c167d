package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files around a public function of the program. Spans of one request
// share ID; Parent is the index of the causing span, or -1.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	ID     string        `json:"id,omitempty"`
	// Work is what the span carried: rows for forward passes, training
	// steps and wire frames, bytes for allreduce calls.
	Work int `json:"work,omitempty"`
}

func (s span) interval() interval { return interval{s.Start, s.End} }

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory for the length of a run. While off, begin
// returns -1 and end ignores it, so the wrappers cost one atomic load.
type tracer struct {
	t0 time.Time
	on atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.t0) }

// begin opens a span and returns its index, or -1 when tracing is off.
func (t *tracer) begin(name string, parent int, id string) int {
	if t == nil || !t.on.Load() {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: -1, Parent: parent, ID: id})
	return len(t.spans) - 1
}

// end closes span i, recording the work it carried.
func (t *tracer) end(i, work int) {
	if i < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = end
	t.spans[i].Work = work
}

// snapshot returns a copy of every span, indexed as begin numbered
// them; a span still open has End < 0.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// named returns the indices of the finished spans called name.
func named(spans []span, name string) []int {
	var out []int
	for i, s := range spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, i)
		}
	}
	return out
}

// childrenOf returns, per parent index, the intervals of its finished
// children.
func childrenOf(spans []span) map[int][]interval {
	out := map[int][]interval{}
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			out[s.Parent] = append(out[s.Parent], s.interval())
		}
	}
	return out
}

// durationsMs returns the durations of the spans at idx.
func durationsMs(spans []span, idx []int) []float64 {
	out := make([]float64, len(idx))
	for k, i := range idx {
		out[k] = spans[i].ms()
	}
	return out
}

// writeJSONLines dumps spans as JSON lines under dir, named after the
// run.
func writeJSONLines(spans []span, dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, f.Close()
}
