package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"cisp/internal/obs"
)

// tracer records the benchmark's own spans around its calls into each
// layer of the program: name, start, end and the span that caused it.
// Spans stay in memory and are written out once the run ends. A nil
// *tracer is the untraced run: do then only calls its function.
type tracer struct {
	t0    time.Time
	spans []spanRec
	open  []int // indexes of the spans enclosing the current call
}

type spanRec struct {
	Name   string        `json:"name"`
	Parent int           `json:"parent"` // index into the span list, -1 for a root
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do runs fn inside a span named after the layer call it wraps.
func (t *tracer) do(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	idx := len(t.spans)
	t.spans = append(t.spans, spanRec{Name: name, Parent: parent, Start: time.Since(t.t0)})
	t.open = append(t.open, idx)
	defer func() {
		t.spans[idx].End = time.Since(t.t0)
		t.open = t.open[:len(t.open)-1]
	}()
	fn()
}

// seconds is the median duration of the spans with the given name, 0 when
// the layer was not called.
func (t *tracer) seconds(name string) float64 {
	var ds []float64
	for _, s := range t.spans {
		if s.Name == name {
			ds = append(ds, (s.End - s.Start).Seconds())
		}
	}
	if len(ds) == 0 {
		return 0
	}
	return median(ds)
}

// write stores the span list as JSON at path, creating its directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// observe runs fn with a fresh metrics registry installed as the
// program's active observability sink and returns the registry, so the
// counters a layer exports are read for exactly the calls made inside fn.
// With trace off it runs fn with observability disabled and returns nil.
func observe(trace bool, fn func()) *obs.Registry {
	if !trace {
		fn()
		return nil
	}
	reg := obs.NewRegistry()
	prev := obs.SetActive(&obs.Sink{Reg: reg, Clock: obs.WallClock})
	defer obs.SetActive(prev)
	fn()
	return reg
}
