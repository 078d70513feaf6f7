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

// tracer keeps the traced run's spans in memory; they are written out as
// JSONL once the run ends, so recording one costs a lock and an append.
// Spans are taken in the benchmark's own code, around its calls into each
// layer's public functions. A nil *tracer records nothing, which is how the
// untraced end-to-end runs use the same code paths.
type tracer struct {
	mu    sync.Mutex
	run   string
	next  int64
	spans []*span
}

// span is one timed call. Parent is 0 for a root span. Run names the sweep
// and workload phase the span belongs to, so the spans of one measured
// phase can be selected from the file.
type span struct {
	Run     string `json:"run"`
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_unix_ns"`
	EndNS   int64  `json:"end_unix_ns"`
}

// setRun names the run that subsequent spans belong to.
func (t *tracer) setRun(run string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.run = run
	t.mu.Unlock()
}

// begin opens a span under parent (nil for a root span).
func (t *tracer) begin(name string, parent *span) *span {
	if t == nil {
		return nil
	}
	s := &span{Name: name, StartNS: time.Now().UnixNano()}
	t.mu.Lock()
	t.next++
	s.ID = t.next
	s.Run = t.run
	if parent != nil {
		s.Parent = parent.ID
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// record adds a span that was timed elsewhere, such as an experiment the
// runner stamped with its start and duration.
func (t *tracer) record(name string, parent *span, start time.Time, d time.Duration) {
	if s := t.begin(name, parent); s != nil {
		s.StartNS = start.UnixNano()
		s.EndNS = s.StartNS + int64(d)
	}
}

// finish closes the span. Safe on a nil span.
func (s *span) finish() {
	if s != nil {
		s.EndNS = time.Now().UnixNano()
	}
}

// write dumps every span as one JSON line to path, creating its directory.
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
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
