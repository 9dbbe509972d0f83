package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// Span is one timed interval of a layer, recorded from outside the
// program: around a call into the layer's public functions, or between
// the client-side arrivals of a daemon's answers. Parent 0 marks a root
// span. Times are nanoseconds since the tracer's start.
type Span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Workload string `json:"workload"`
	Cell     string `json:"cell,omitempty"`
}

// Dur is the span's wall time.
func (s Span) Dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer holds a run's spans in memory until the run writes them out.
type tracer struct {
	workload string
	base     time.Time
	spans    []Span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, base: time.Now()}
}

// add records a span with explicit bounds and returns its id.
func (t *tracer) add(parent int, name, cell string, start, end time.Time) int {
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		StartNS: start.Sub(t.base).Nanoseconds(), EndNS: end.Sub(t.base).Nanoseconds(),
		Workload: t.workload, Cell: cell})
	return len(t.spans)
}

// begin opens a span under parent (0 for a root) and returns its id.
func (t *tracer) begin(parent int, name, cell string) int {
	now := time.Now()
	return t.add(parent, name, cell, now, now)
}

// end closes span id.
func (t *tracer) end(id int) {
	t.spans[id-1].EndNS = time.Since(t.base).Nanoseconds()
}

// call runs fn inside a span.
func (t *tracer) call(parent int, name, cell string, fn func()) {
	id := t.begin(parent, name, cell)
	fn()
	t.end(id)
}

// selfTimes returns each span's duration minus the part of its interval
// its children cover, keyed by span id.
func selfTimes(spans []Span) map[int]time.Duration {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		// Union of the children's intervals, clipped to the parent's.
		covered, curStart, curEnd := int64(0), int64(-1), int64(-1)
		for _, k := range kids {
			a, b := max(k.StartNS, s.StartNS), min(k.EndNS, s.EndNS)
			if b <= a {
				continue
			}
			if a > curEnd {
				if curEnd > curStart {
					covered += curEnd - curStart
				}
				curStart, curEnd = a, b
			} else if b > curEnd {
				curEnd = b
			}
		}
		if curEnd > curStart {
			covered += curEnd - curStart
		}
		self[s.ID] = time.Duration(s.EndNS - s.StartNS - covered)
	}
	return self
}

// checkSpans reports the first malformed span: an unknown parent, an end
// before the start, or a negative self time.
func checkSpans(spans []Span) error {
	ids := make(map[int]bool, len(spans))
	for _, s := range spans {
		ids[s.ID] = true
	}
	for _, s := range spans {
		if s.Parent != 0 && !ids[s.Parent] {
			return fmt.Errorf("span %d (%s): parent %d does not exist", s.ID, s.Name, s.Parent)
		}
		if s.EndNS < s.StartNS {
			return fmt.Errorf("span %d (%s): ends before it starts", s.ID, s.Name)
		}
	}
	for id, d := range selfTimes(spans) {
		if d < 0 {
			return fmt.Errorf("span %d: negative self time %v", id, d)
		}
	}
	return nil
}

// writeSpans writes spans to path as one JSON document.
func writeSpans(path, workload string, spans []Span) error {
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []Span `json:"spans"`
	}{workload, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
