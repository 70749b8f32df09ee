package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"sort"
	"time"
)

// ProcessTrace is one process's contribution to a merged cluster trace: a
// span set plus the anchoring needed to place it on a shared timeline.
// EpochNS is the process's tracer epoch as Unix nanoseconds, already
// corrected onto the merging process's clock (add the estimated clock
// offset before building the ProcessTrace); span Starts are relative to
// that epoch, exactly as Tracer.Spans reports them.
type ProcessTrace struct {
	Name    string // process label ("worker", "shard0", ...)
	PID     int    // Chrome trace pid; must be unique across processes
	EpochNS int64
	Spans   []Span
	Threads map[int]string
	Inst    []Instant
}

// Instant is one exported zero-duration marker event for merging.
type Instant struct {
	Name string
	Cat  string
	TID  int
	At   time.Duration // relative to the process's epoch
}

// Process snapshots the tracer as one process of a merged trace: its
// retained spans, instants and thread names, anchored at its epoch in Unix
// nanoseconds on its own clock. A nil tracer gives a process with no events.
func (t *Tracer) Process(name string, pid int) ProcessTrace {
	p := ProcessTrace{Name: name, PID: pid}
	if t == nil {
		return p
	}
	p.EpochNS = t.epoch.UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	p.Spans = t.spans.ordered()
	p.Threads = maps.Clone(t.threads)
	p.Inst = t.inst.ordered()
	return p
}

// WriteMergedChromeTrace writes one Chrome trace spanning several
// processes. Every process's spans are rebased onto a shared timeline
// (zero = the earliest event across all processes, so the trace opens at
// t=0 regardless of absolute wall time), and parent links are resolved
// across the whole set — a child span in one process draws a flow arrow
// from its parent in another, which is the point of propagating trace
// context over the wire. Span-id spaces must be disjoint across processes
// (see Tracer.SetSpanIDBase) or links may resolve to the wrong span.
func WriteMergedChromeTrace(w io.Writer, procs []ProcessTrace) error {
	seen := make(map[int]bool, len(procs))
	for _, p := range procs {
		if seen[p.PID] {
			return fmt.Errorf("obs: merged trace: duplicate pid %d", p.PID)
		}
		seen[p.PID] = true
	}

	// The shared origin: the earliest absolute event time in the set.
	var t0 int64
	first := true
	for _, p := range procs {
		for _, sp := range p.Spans {
			at := p.EpochNS + int64(sp.Start)
			if first || at < t0 {
				t0, first = at, false
			}
		}
		for _, in := range p.Inst {
			at := p.EpochNS + int64(in.At)
			if first || at < t0 {
				t0, first = at, false
			}
		}
	}

	var events []traceEvent
	var placed []placedSpan
	for _, p := range procs {
		events = append(events, traceEvent{
			Name: "process_name", Ph: "M", PID: p.PID, TID: 0,
			Args: map[string]any{"name": p.Name},
		})
		events = append(events, threadNameEvents(p.PID, p.Threads)...)
		for _, sp := range p.Spans {
			ts := usOf(time.Duration(p.EpochNS + int64(sp.Start) - t0))
			placed = append(placed, placedSpan{span: sp, pid: p.PID, ts: ts})
			events = append(events, spanEvent(sp, p.PID, ts))
		}
		for _, in := range p.Inst {
			events = append(events, traceEvent{
				Name: in.Name, Cat: in.Cat, Ph: "i", PID: p.PID, TID: in.TID, S: "t",
				TS: usOf(time.Duration(p.EpochNS + int64(in.At) - t0)),
			})
		}
	}
	events = append(events, flowEvents(placed)...)
	if events == nil {
		events = []traceEvent{}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events})
}

// traceEvent is one Chrome trace-event JSON object. Timestamps and
// durations are microseconds; ph X is a complete span, i an instant event,
// M metadata (process/thread names), s/f a flow arrow between two slices.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	ID   uint64         `json:"id,omitempty"` // flow-event binding id
	BP   string         `json:"bp,omitempty"` // flow binding point ("e": enclosing slice)
	S    string         `json:"s,omitempty"`  // instant-event scope
	Args map[string]any `json:"args,omitempty"`
}

// usOf converts a duration to Chrome trace microseconds.
func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// spanEvent renders one complete-span event at absolute timestamp ts (µs).
func spanEvent(sp Span, pid int, ts float64) traceEvent {
	ev := traceEvent{
		Name: sp.Name, Cat: sp.Cat, Ph: "X", PID: pid, TID: sp.TID,
		TS: ts, Dur: usOf(sp.Dur),
	}
	if sp.Trace != 0 || sp.ID != 0 {
		ev.Args = map[string]any{
			"trace": fmt.Sprintf("%#x", sp.Trace),
			"span":  fmt.Sprintf("%#x", sp.ID),
		}
		if sp.Parent != 0 {
			ev.Args["parent"] = fmt.Sprintf("%#x", sp.Parent)
		}
	}
	return ev
}

// placedSpan is a span located in the merged (or single-process) event
// set: its process and its absolute timestamp in trace microseconds.
type placedSpan struct {
	span Span
	pid  int
	ts   float64
}

// flowEvents emits one Chrome flow arrow (ph s → ph f) for every span
// whose Parent resolves to another placed span's ID: the arrow starts
// inside the parent slice and lands on the child slice. The child's own id
// binds the pair, so a parent with several children (RPC retries) gets one
// arrow per child.
func flowEvents(placed []placedSpan) []traceEvent {
	byID := make(map[uint64]placedSpan, len(placed))
	for _, p := range placed {
		if p.span.ID != 0 {
			byID[p.span.ID] = p
		}
	}
	var out []traceEvent
	for _, child := range placed {
		if child.span.Parent == 0 {
			continue
		}
		parent, ok := byID[child.span.Parent]
		if !ok {
			continue
		}
		out = append(out, traceEvent{
			Name: "rpc", Cat: "flow", Ph: "s", PID: parent.pid, TID: parent.span.TID,
			TS: parent.ts, ID: child.span.ID,
		})
		out = append(out, traceEvent{
			Name: "rpc", Cat: "flow", Ph: "f", BP: "e", PID: child.pid, TID: child.span.TID,
			TS: child.ts, ID: child.span.ID,
		})
	}
	return out
}

// threadNameEvents renders thread-name metadata for one process, in
// ascending tid order.
func threadNameEvents(pid int, threads map[int]string) []traceEvent {
	tids := make([]int, 0, len(threads))
	for tid := range threads {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	out := make([]traceEvent, 0, len(tids))
	for _, tid := range tids {
		out = append(out, traceEvent{
			Name: "thread_name", Ph: "M", PID: pid, TID: tid,
			Args: map[string]any{"name": threads[tid]},
		})
	}
	return out
}
