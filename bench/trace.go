package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// tracer keeps the traced run's spans in memory until the run ends. Spans
// are recorded by the benchmark around its own calls into each layer; a nil
// *tracer records nothing, so untraced runs pay only the clock reads their
// metrics need anyway.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	spans  []spanRecord
	traces uint64
}

// spanRecord is one finished or open span. IDs start at 1; Parent 0 marks a
// top-level span of its trace. Times are nanoseconds since the tracer's
// epoch.
type spanRecord struct {
	Trace  uint64 `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// span is a handle on an open span. The zero trace/id of an untraced span
// still carries its start time, so end reports a duration either way.
type span struct {
	t     *tracer
	trace uint64
	id    int
	start time.Time
}

// begin opens a top-level span in a new trace.
func (t *tracer) begin(name string) span {
	if t == nil {
		return span{start: time.Now()}
	}
	t.mu.Lock()
	t.traces++
	trace := t.traces
	t.mu.Unlock()
	return t.open(trace, 0, name)
}

// sibling opens another top-level span in s's trace.
func (s span) sibling(name string) span {
	if s.t == nil {
		return span{start: time.Now()}
	}
	return s.t.open(s.trace, 0, name)
}

// child opens a span caused by s.
func (s span) child(name string) span {
	if s.t == nil {
		return span{start: time.Now()}
	}
	return s.t.open(s.trace, s.id, name)
}

func (t *tracer) open(trace uint64, parent int, name string) span {
	now := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, spanRecord{Trace: trace, ID: len(t.spans) + 1, Parent: parent, Name: name, Start: int64(now.Sub(t.epoch)), End: -1})
	id := len(t.spans)
	t.mu.Unlock()
	return span{t: t, trace: trace, id: id, start: now}
}

// end closes the span and returns its duration.
func (s span) end() time.Duration {
	now := time.Now()
	if s.t != nil {
		s.t.mu.Lock()
		s.t.spans[s.id-1].End = int64(now.Sub(s.t.epoch))
		s.t.mu.Unlock()
	}
	return now.Sub(s.start)
}

// records returns a copy of the spans recorded so far.
func (t *tracer) records() []spanRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]spanRecord(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover (overlapping children count once).
func selfTimes(spans []spanRecord) map[int]int64 {
	children := map[int][]spanRecord{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered int64
		cur, curEnd := int64(-1), int64(-1)
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				covered += curEnd - cur
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		covered += curEnd - cur
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// nameTotal aggregates the spans of one name.
type nameTotal struct {
	Count   int   `json:"count"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
}

// checkSpans verifies the trace's structure: every span closed, every
// child inside its parent's interval, every self time non-negative.
func checkSpans(spans []spanRecord) error {
	byID := make(map[int]spanRecord, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d %q not closed", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %d %q has unknown parent %d", s.ID, s.Name, s.Parent)
		}
		if p.Trace != s.Trace || s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d %q [%d,%d] escapes parent %d %q [%d,%d]", s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
	}
	for id, self := range selfTimes(spans) {
		if self < 0 {
			return fmt.Errorf("span %d has negative self time %d ns", id, self)
		}
	}
	return nil
}

// write saves the spans and per-name totals to path as JSON.
func (t *tracer) write(path string) error {
	spans := t.records()
	self := selfTimes(spans)
	totals := map[string]*nameTotal{}
	for _, s := range spans {
		nt := totals[s.Name]
		if nt == nil {
			nt = &nameTotal{}
			totals[s.Name] = nt
		}
		nt.Count++
		nt.TotalNs += s.End - s.Start
		nt.SelfNs += self[s.ID]
	}
	doc := struct {
		Spans  []spanRecord          `json:"spans"`
		ByName map[string]*nameTotal `json:"by_name"`
	}{spans, totals}
	b, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans directory: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
