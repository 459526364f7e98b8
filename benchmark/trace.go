package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// The trace recorder lives entirely in the benchmark's own files: spans are
// opened around the calls the benchmark makes into each module's public
// functions and around public seams (allocator, state sink, listener), kept
// in memory, and written as Chrome trace_event JSON when the run ends. The
// end-to-end numbers never come from a traced run.

// span is one timed interval at a layer boundary.
type span struct {
	id     int
	parent int // span id, 0 = root
	op     int // operation the span belongs to (-1 = outside any op)
	name   string
	tid    int // 0 = driver goroutine, 1 = server side
	start  time.Duration
	end    time.Duration
}

// tracer records spans. A nil *tracer records nothing, so the workloads call
// it unconditionally and the untraced run pays one nil check per call.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	// stack is the driver goroutine's open spans; server-side spans (other
	// goroutines) attach to the innermost driver span open when they begin.
	stack []int
	curOp int
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), curOp: -1} }

func (t *tracer) setOp(op int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.curOp = op
	t.mu.Unlock()
}

// begin opens a span on the driver goroutine; the returned func closes it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	t.mu.Lock()
	id := t.open(name, 0)
	t.stack = append(t.stack, id)
	t.mu.Unlock()
	return func() {
		now := time.Since(t.epoch)
		t.mu.Lock()
		t.spans[id-1].end = now
		if n := len(t.stack); n > 0 && t.stack[n-1] == id {
			t.stack = t.stack[:n-1]
		}
		t.mu.Unlock()
	}
}

// beginAsync opens a span from a seam that runs on another goroutine (the
// server's connection handlers, the solver under the manager's lock).
func (t *tracer) beginAsync(name string) func() {
	if t == nil {
		return func() {}
	}
	t.mu.Lock()
	id := t.open(name, 1)
	t.mu.Unlock()
	return func() {
		now := time.Since(t.epoch)
		t.mu.Lock()
		t.spans[id-1].end = now
		t.mu.Unlock()
	}
}

// open appends a span and returns its id; t.mu must be held.
func (t *tracer) open(name string, tid int) int {
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		id: id, parent: parent, op: t.curOp, name: name, tid: tid,
		start: time.Since(t.epoch),
	})
	return id
}

// closed returns the finished spans (unfinished ones are dropped).
func (t *tracer) closed() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.end >= s.start && s.end > 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per span id, the span's duration minus the part of it
// its direct children cover (overlapping children are merged first).
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.id]
		sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
		var covered, hi time.Duration
		hi = s.start
		for _, k := range kids {
			lo, end := k.start, k.end
			if lo < hi {
				lo = hi
			}
			if end > s.end {
				end = s.end
			}
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		out[s.id] = (s.end - s.start) - covered
	}
	return out
}

// spanDurations returns the durations (ms) of every closed span with the
// given name.
func spanDurations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.name == name {
			out = append(out, ms(s.end-s.start))
		}
	}
	return out
}

// selfTotal sums the self time (ms) of every span with the given name; self
// is selfTimes(spans).
func selfTotal(spans []span, self map[int]time.Duration, name string) float64 {
	var total time.Duration
	for _, s := range spans {
		if s.name == name {
			total += self[s.id]
		}
	}
	return ms(total)
}

// writeChromeTrace writes the spans as Chrome trace_event JSON (complete
// "X" events; load in chrome://tracing or Perfetto).
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`  // µs
		Dur  float64        `json:"dur"` // µs
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, 0, len(spans))
	for _, s := range spans {
		evs = append(evs, event{
			Name: s.name, Ph: "X",
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.tid,
			Args: map[string]int{"id": s.id, "parent": s.parent, "op": s.op},
		})
	}
	raw, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
