package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the ID of the span that caused this one, 0 for a
// root. Start and End are nanoseconds since the tracer was created.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced run pays no tracing cost.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	nextID int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its ID.
func (t *tracer) add(parent, req int64, name string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	t.spans = append(t.spans, span{
		ID: t.nextID, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	return t.nextID
}

// newReq allocates a request identifier.
func (t *tracer) newReq() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// call runs fn inside a root span named name: the shape of every
// in-process call into kcore and engine.
func (t *tracer) call(name string, fn func() error) error {
	start := time.Now()
	err := fn()
	t.add(0, t.newReq(), name, start, time.Now())
	return err
}

// merge appends spans recorded elsewhere (the batch child), shifting
// their IDs past this tracer's and their clock by offset.
func (t *tracer) merge(spans []span, offset time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	base := t.nextID
	for _, s := range spans {
		s.ID += base
		if s.Parent != 0 {
			s.Parent += base
		}
		s.Req += base
		s.Start += int64(offset)
		s.End += int64(offset)
		t.spans = append(t.spans, s)
		t.nextID = max(t.nextID, s.ID, s.Req)
	}
}

// selfTime is one row of the per-span summary.
type selfTime struct {
	Name   string
	Count  int
	SelfNs int64 // total duration minus the part child spans cover
}

// selfTimes computes, per span name, the count and the summed self
// time: a span's duration minus the durations of its direct children
// (children of one parent do not overlap in this harness).
func (t *tracer) selfTimes() []selfTime {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := make(map[int64]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	byName := make(map[string]*selfTime)
	for _, s := range t.spans {
		st := byName[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			byName[s.Name] = st
		}
		st.Count++
		st.SelfNs += max(0, s.End-s.Start-covered[s.ID])
	}
	out := make([]selfTime, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	slices.SortFunc(out, func(a, b selfTime) int { return cmp.Compare(b.SelfNs, a.SelfNs) })
	return out
}

// meanSelfUs is the mean self time in microseconds of spans named name.
func meanSelfUs(rows []selfTime, name string) float64 {
	for _, r := range rows {
		if r.Name == name && r.Count > 0 {
			return float64(r.SelfNs) / float64(r.Count) / 1e3
		}
	}
	return 0
}

// appendJSONL appends one line per span to path, each tagged with the
// workload whose traced run recorded it.
func (t *tracer) appendJSONL(path, workload string) error {
	if t == nil {
		return nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		line := struct {
			Workload string `json:"workload"`
			*span
		}{workload, &t.spans[i]}
		if err = enc.Encode(line); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}
