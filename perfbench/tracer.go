package main

import (
	"bufio"
	"os"
	"sync"

	"repro/internal/obs"
)

// tracer keeps the spans of one traced pass in memory until the run ends.
// Every method is a no-op on a nil tracer, so untraced passes call the same
// code.
type tracer struct {
	trace string
	mu    sync.Mutex
	spans []obs.Span
}

func newTracer() *tracer { return &tracer{trace: obs.NewTraceID()} }

// start opens a span under parent ("" for the pass's root span).
func (t *tracer) start(name, parent string) obs.Span {
	if t == nil {
		return obs.Span{}
	}
	return obs.StartSpan(t.trace, parent, name, "perfbench")
}

// end closes s, annotates it with key/value pairs and keeps it.
func (t *tracer) end(s obs.Span, kv ...string) {
	if t == nil {
		return
	}
	s.End()
	t.keep(s, kv...)
}

// keep stores a span whose times are already set.
func (t *tracer) keep(s obs.Span, kv ...string) {
	if t == nil {
		return
	}
	for i := 0; i+1 < len(kv); i += 2 {
		s.SetAttr(kv[i], kv[i+1])
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// write exports the spans as a Chrome trace.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	t.mu.Lock()
	err = obs.WriteSpanTrace(bw, t.spans)
	t.mu.Unlock()
	if err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
