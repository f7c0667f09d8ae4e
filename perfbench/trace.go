package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer: its name, the operation it belongs
// to, the span that caused it, and its interval.
type span struct {
	ID     uint64    `json:"id"`
	Op     uint64    `json:"op"`
	Parent uint64    `json:"parent,omitempty"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) ms() float64 { return float64(s.End.Sub(s.Start).Nanoseconds()) / 1e6 }

// tracer keeps spans in memory; they are written out once the run ends.
// A nil tracer records nothing, so untraced code paths pay one nil check.
type tracer struct {
	mu    sync.Mutex
	spans []span
	next  uint64
	ops   uint64
}

// newOp allocates an operation ID shared by every span of one operation.
func (t *tracer) newOp() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// begin opens a span and returns its ID; end closes it.
func (t *tracer) begin(op, parent uint64, name string) uint64 {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Op: op, Parent: parent, Name: name, Start: now})
	return t.next
}

func (t *tracer) end(id uint64) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// record adds a span that was timed elsewhere (a stage record of the
// program's own trace) and returns its ID.
func (t *tracer) record(op, parent uint64, name string, start, end time.Time) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Op: op, Parent: parent, Name: name, Start: start, End: end})
	return t.next
}

// timed runs fn inside a span.
func (t *tracer) timed(op, parent uint64, name string, fn func()) {
	id := t.begin(op, parent, name)
	fn()
	t.end(id)
}

// durByName collects the durations of every span with the given name.
func (t *tracer) durByName(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.ms())
		}
	}
	return out
}

// opDurations groups span durations in ms by operation, then by name.
func (t *tracer) opDurations() map[uint64]map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[uint64]map[string]float64{}
	for _, s := range t.spans {
		if out[s.Op] == nil {
			out[s.Op] = map[string]float64{}
		}
		out[s.Op][s.Name] = s.ms()
	}
	return out
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
