package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: its name, its interval in
// nanoseconds since the tracer's epoch, and the span that caused it
// (0 = none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory for one traced run; they are written out
// when the run ends. A nil *tracer records nothing, which is how untraced
// runs call the same code paths without paying for spans.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span now and returns its id (0 on a nil tracer).
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now, End: now})
	return id
}

// finish closes span id now.
func (t *tracer) finish(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose interval is already known.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return id
}

// spanStart returns when span id started (the zero time on a nil tracer).
func (t *tracer) spanStart(id int) time.Time {
	if t == nil || id == 0 {
		return time.Time{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.epoch.Add(time.Duration(t.spans[id-1].Start))
}

// setParent re-parents span id, for causes only known once the run is over
// (a monitor tick's module calls arrive as separate requests).
func (t *tracer) setParent(id, parent int) {
	t.mu.Lock()
	t.spans[id-1].Parent = parent
	t.mu.Unlock()
}

// reset drops every span recorded so far.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes maps each span id to its self time: its duration minus the
// part of its interval that its children cover. Overlapping children count
// once, and a child reaching outside its parent counts only inside it.
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered is the length of [lo, hi] covered by the union of the spans'
// intervals.
func covered(lo, hi int64, spans []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = lo
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// byName groups span durations or self times, in seconds, by span name.
func byName(spans []span, self map[int]int64) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range spans {
		d := s.dur()
		if self != nil {
			d = self[s.ID]
		}
		out[s.Name] = append(out[s.Name], float64(d)/1e9)
	}
	return out
}
