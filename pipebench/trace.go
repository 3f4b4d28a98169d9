package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one call into a layer's public function, recorded by the
// benchmark around the call (the program itself is not instrumented).
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"` // since the tracer's origin
	End     int64  `json:"end_ns"`
	Parent  int32  `json:"parent"` // index of the enclosing span, -1 at top level
	Episode int32  `json:"episode"`
}

// tracer keeps spans in memory; they are written out once, when the run
// ends. A nil or disabled tracer records nothing, so the untraced run pays
// one branch per call site.
type tracer struct {
	on      bool
	origin  time.Time
	spans   []span
	open    []int32 // stack of open span indices (the benchmark is single-goroutine)
	episode int32
}

func newTracer(on bool) *tracer { return &tracer{on: on, origin: time.Now()} }

// newEpisode starts a new episode id: every span until the next call
// belongs to it. An episode is one instance (setup plus the events run on
// it) or one corrupted-tree cell.
func (t *tracer) newEpisode() {
	if t.on {
		t.episode++
	}
}

// do runs f inside a span named name when tracing, and bare otherwise.
func (t *tracer) do(name string, f func()) {
	if !t.on {
		f()
		return
	}
	parent := int32(-1)
	if k := len(t.open); k > 0 {
		parent = t.open[k-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.origin).Nanoseconds(), Parent: parent, Episode: t.episode})
	t.open = append(t.open, id)
	f()
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = time.Since(t.origin).Nanoseconds()
}

// spanTotal returns the summed duration of the spans with the given name.
func spanTotal(spans []span, name string) time.Duration {
	var d int64
	for i := range spans {
		if spans[i].Name == name {
			d += spans[i].End - spans[i].Start
		}
	}
	return time.Duration(d)
}

// spanMillis returns the duration of each span with the given name, in ms.
func spanMillis(spans []span, name string) []float64 {
	var out []float64
	for i := range spans {
		if spans[i].Name == name {
			out = append(out, float64(spans[i].End-spans[i].Start)/1e6)
		}
	}
	return out
}

// layerTime is one span name's share of a run: calls, total time, and self
// time (the total minus the part its direct child spans cover).
type layerTime struct {
	calls       int
	total, self time.Duration
}

func layerTimes(all []span) map[string]*layerTime {
	out := make(map[string]*layerTime)
	get := func(name string) *layerTime {
		lt := out[name]
		if lt == nil {
			lt = &layerTime{}
			out[name] = lt
		}
		return lt
	}
	for i := range all {
		s := &all[i]
		d := time.Duration(s.End - s.Start)
		lt := get(s.Name)
		lt.calls++
		lt.total += d
		lt.self += d
		if s.Parent >= 0 {
			get(all[s.Parent].Name).self -= d
		}
	}
	return out
}

// write stores the provenance and every span as JSON lines: the first line
// is the provenance object, each further line one span.
func (t *tracer) write(path string, prov provenance) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(prov); err != nil {
		f.Close()
		return err
	}
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
