package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"
)

// span is one timed call from the benchmark into a layer of the program.
// Spans of one unit share Unit; Parent is the enclosing span's ID, 0 for
// the unit's root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Unit   int    `json:"unit"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Alloc is the heap bytes allocated while the span was open, children
	// included.
	Alloc uint64 `json:"alloc_bytes"`
}

func (s span) interval() interval { return interval{s.Start, s.End} }

// tracer records spans in memory; write dumps them when the run ends. A
// nil tracer records nothing, so one code path serves traced and untraced
// calls.
type tracer struct {
	epoch time.Time
	unit  int
	spans []span
	open  []int // indexes into spans, innermost last
	alloc []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{
		epoch: time.Now(),
		alloc: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

func (t *tracer) allocated() uint64 {
	metrics.Read(t.alloc)
	return t.alloc[0].Value.Uint64()
}

// startUnit opens the root span of a new unit.
func (t *tracer) startUnit(id int) {
	if t == nil {
		return
	}
	t.unit = id
	t.open = t.open[:0]
	t.begin("unit")
}

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{
		ID:     len(t.spans) + 1,
		Parent: parent,
		Unit:   t.unit,
		Name:   name,
		Alloc:  t.allocated(),
		Start:  int64(time.Since(t.epoch)),
	})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = now
	t.spans[i].Alloc = t.allocated() - t.spans[i].Alloc
}

// endUnit closes every span the unit left open and returns its spans.
func (t *tracer) endUnit() []span {
	if t == nil {
		return nil
	}
	for len(t.open) > 0 {
		t.end()
	}
	var out []span
	for _, s := range t.spans {
		if s.Unit == t.unit {
			out = append(out, s)
		}
	}
	return out
}

// liveHeap forces a collection inside a "heap.gc" span, which tracedTime
// leaves out of the unit's traced time, and returns the live heap bytes.
func (t *tracer) liveHeap() uint64 {
	if t == nil {
		return 0
	}
	t.begin("heap.gc")
	defer t.end()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// write dumps every recorded span as JSON to path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns, per span name, the summed self time in nanoseconds of
// one unit's spans: each span's duration minus the part of it that its
// children cover.
func selfTimes(spans []span) map[string]int64 {
	children := map[int][]interval{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s.interval())
		}
	}
	out := map[string]int64{}
	for _, s := range spans {
		out[s.Name] += (s.End - s.Start) - covered(s.interval(), children[s.ID])
	}
	return out
}

// selfAllocs returns, per span name, the heap bytes allocated by the
// spans of one unit outside their children.
func selfAllocs(spans []span) map[string]int64 {
	childAlloc := map[int]uint64{}
	for _, s := range spans {
		if s.Parent != 0 {
			childAlloc[s.Parent] += s.Alloc
		}
	}
	out := map[string]int64{}
	for _, s := range spans {
		out[s.Name] += int64(s.Alloc) - int64(childAlloc[s.ID])
	}
	return out
}

// tracedTime is a traced unit's wall time without its forced collection:
// the root span's duration minus its "heap.gc" children.
func tracedTime(spans []span) time.Duration {
	var root span
	for _, s := range spans {
		if s.Parent == 0 {
			root = s
		}
	}
	d := root.End - root.Start
	for _, s := range spans {
		if s.Parent == root.ID && s.Name == "heap.gc" {
			d -= s.End - s.Start
		}
	}
	return time.Duration(d)
}
