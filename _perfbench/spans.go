package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one operation share a run id; parent is the id of
// the enclosing span (0 for none).
type span struct {
	id, parent, run int
	name, cat       string
	start, end      time.Duration // since the tracer's origin
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	runs   int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) newRun() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.runs++
	return t.runs
}

// begin opens a span now and returns its id.
func (t *tracer) begin(run, parent int, name, cat string) int {
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{id: len(t.spans) + 1, parent: parent, run: run, name: name, cat: cat, start: now, end: -1})
	return len(t.spans)
}

// end closes span id now.
func (t *tracer) end(id int) {
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere.
func (t *tracer) add(run, parent int, name, cat string, start time.Time, dur time.Duration) int {
	s := start.Sub(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{id: len(t.spans) + 1, parent: parent, run: run, name: name, cat: cat, start: s, end: s + dur})
	return len(t.spans)
}

// selfTimes sums, per span name, each span's duration minus the time
// its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int]time.Duration)
	for _, s := range t.spans {
		if s.parent != 0 && s.end >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		if s.end < 0 {
			continue
		}
		self := s.end - s.start - child[s.id]
		if self < 0 {
			self = 0 // children of a parallel pass overlap each other
		}
		out[s.name] += self
	}
	return out
}

func (t *tracer) printSelfTimes() {
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Println("# span self time (ms)")
	for _, n := range names {
		fmt.Printf("#   %-28s %12.3f\n", n, float64(self[n].Microseconds())/1e3)
	}
}

// writeChrome writes the spans as Chrome/Perfetto trace JSON, one track
// per run id.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		if s.end < 0 {
			continue
		}
		events = append(events, event{
			Name: s.name, Cat: s.cat, Ph: "X",
			TS:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			PID: 1, TID: s.run,
			Args: map[string]int{"id": s.id, "parent": s.parent, "run": s.run},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
