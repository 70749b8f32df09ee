package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpans bounds span retention so a long training run cannot grow the
// trace without limit; past the cap the ring overwrites the oldest events
// (keeping the most recent window — the interesting one for a live cluster
// scrape) and counts every overwrite in Dropped.
const maxSpans = 1 << 18

// Span is one completed interval on a logical thread (a pipeline stage).
// Start is relative to the tracer's epoch (its creation instant).
//
// Trace, ID and Parent carry the distributed-tracing identity: spans begun
// with Begin have all three zero (purely local), BeginTrace roots a new
// trace (Trace == ID), and BeginChild links a span under a parent that may
// live in another process — the wire protocol forwards the caller's
// TraceContext, so a shard-side handler span's Parent is the worker-side
// RPC span's ID. WriteChromeTrace and WriteMergedChromeTrace turn each
// resolvable Parent link into a Chrome flow event (a visible arrow).
type Span struct {
	Name  string
	Cat   string
	TID   int
	Start time.Duration
	Dur   time.Duration

	Trace  uint64 // trace id (0 = untraced)
	ID     uint64 // span id, unique within the tracer's id space
	Parent uint64 // parent span id (0 = root or untraced)
}

// TraceContext is the portable identity of an open span: what a caller
// forwards (in-process or over the wire) so downstream work can link
// itself under the span.
type TraceContext struct {
	Trace uint64
	Span  uint64
}

// ring is bounded most-recent retention: append up to cap, then overwrite
// the oldest entry, counting every overwrite.
type ring[T any] struct {
	buf     []T
	next    int // overwrite cursor once len(buf) == cap
	dropped int64
}

func (r *ring[T]) add(capN int, v T) {
	if capN < 1 {
		capN = 1
	}
	if len(r.buf) < capN {
		r.buf = append(r.buf, v)
		return
	}
	if r.next >= len(r.buf) {
		r.next = 0
	}
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
	r.dropped++
}

// ordered returns a copy in recording order (oldest first).
func (r *ring[T]) ordered() []T {
	if r.dropped == 0 || r.next == 0 {
		return append([]T(nil), r.buf...)
	}
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Tracer records spans and instant events against an injected clock and
// exports them as Chrome trace-event JSON (chrome://tracing / Perfetto).
// All methods are safe for concurrent use and no-ops on a nil *Tracer.
type Tracer struct {
	clock Clock
	epoch time.Time

	idBase atomic.Uint64 // OR-ed into every allocated id (process salt)
	ids    atomic.Uint64 // monotone id counter

	mu      sync.Mutex
	cap     int            // guarded by mu; ring capacity
	spans   ring[Span]     // guarded by mu
	inst    ring[instant]  // guarded by mu
	threads map[int]string // guarded by mu
}

// instant is one zero-duration marker event (a retry, an injected fault).
type instant struct {
	name string
	cat  string
	tid  int
	at   time.Duration
}

// NewTracer returns a tracer whose epoch is the clock's current reading
// (nil clock: the system clock).
func NewTracer(clock Clock) *Tracer {
	clock = OrSystem(clock)
	t := &Tracer{clock: clock, epoch: clock.Now()}
	t.mu.Lock()
	t.cap = maxSpans
	t.threads = map[int]string{}
	t.mu.Unlock()
	return t
}

// Epoch returns the instant span Starts are measured from (zero time on a
// nil tracer). Cross-process trace merging anchors each process's spans at
// its epoch.
func (t *Tracer) Epoch() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.epoch
}

// SetSpanIDBase installs a per-process salt OR-ed into every span id this
// tracer allocates. Processes contributing to one merged trace must use
// disjoint salts (high bits, e.g. processIndex<<48) so parent links never
// collide across id spaces. Call it before recording; ids already handed
// out keep their old base.
func (t *Tracer) SetSpanIDBase(base uint64) {
	if t == nil {
		return
	}
	t.idBase.Store(base)
}

// SetCapacity bounds event retention (spans and instants each keep up to n
// most-recent events). Intended for tests and tools; call it before
// recording. n < 1 is clamped to 1.
func (t *Tracer) SetCapacity(n int) {
	if t == nil {
		return
	}
	if n < 1 {
		n = 1
	}
	t.mu.Lock()
	t.cap = n
	t.mu.Unlock()
}

// nextID allocates a span id.
func (t *Tracer) nextID() uint64 {
	return t.idBase.Load() | t.ids.Add(1)
}

// SetThreadName labels a logical thread id in the exported trace.
func (t *Tracer) SetThreadName(tid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.threads[tid] = name
	t.mu.Unlock()
}

// Threads returns a copy of the thread-name table.
func (t *Tracer) Threads() map[int]string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int]string, len(t.threads))
	for tid, name := range t.threads {
		out[tid] = name
	}
	return out
}

// SpanHandle is an open span returned by Begin/BeginTrace/BeginChild; End
// closes it. Only End records anything: a span left open never appears in
// the export, so every exported span is complete by construction.
type SpanHandle struct {
	t      *Tracer
	name   string
	cat    string
	tid    int
	start  time.Time
	trace  uint64
	id     uint64
	parent uint64
}

// Begin opens a purely local span (no trace identity). On a nil tracer the
// returned handle's End is a no-op.
func (t *Tracer) Begin(name, cat string, tid int) SpanHandle {
	if t == nil {
		return SpanHandle{}
	}
	return SpanHandle{t: t, name: name, cat: cat, tid: tid, start: t.clock.Now()}
}

// BeginTrace opens a span rooting a fresh trace: the span's id doubles as
// the trace id. Forward the handle's Context() (in-process or over the
// wire) to link downstream work under it.
func (t *Tracer) BeginTrace(name, cat string, tid int) SpanHandle {
	if t == nil {
		return SpanHandle{}
	}
	id := t.nextID()
	return SpanHandle{t: t, name: name, cat: cat, tid: tid, start: t.clock.Now(),
		trace: id, id: id}
}

// BeginChild opens a span linked under parent (typically a TraceContext
// that crossed a process boundary). A zero parent degrades gracefully: the
// span still gets its own id but stays untraced.
func (t *Tracer) BeginChild(name, cat string, tid int, parent TraceContext) SpanHandle {
	if t == nil {
		return SpanHandle{}
	}
	return SpanHandle{t: t, name: name, cat: cat, tid: tid, start: t.clock.Now(),
		trace: parent.Trace, id: t.nextID(), parent: parent.Span}
}

// Context returns the span's forwardable identity (zero for spans opened
// with Begin or on a nil tracer).
func (s SpanHandle) Context() TraceContext {
	return TraceContext{Trace: s.trace, Span: s.id}
}

// End closes the span and records it.
func (s SpanHandle) End() {
	if s.t == nil {
		return
	}
	now := s.t.clock.Now()
	s.t.add(Span{
		Name:   s.name,
		Cat:    s.cat,
		TID:    s.tid,
		Start:  s.start.Sub(s.t.epoch),
		Dur:    now.Sub(s.start),
		Trace:  s.trace,
		ID:     s.id,
		Parent: s.parent,
	})
}

// add records one completed span, honouring the retention cap.
func (t *Tracer) add(sp Span) {
	t.mu.Lock()
	t.spans.add(t.cap, sp)
	t.mu.Unlock()
}

// Instant records a zero-duration marker event at the current instant.
func (t *Tracer) Instant(name, cat string, tid int) {
	if t == nil {
		return
	}
	at := t.clock.Now().Sub(t.epoch)
	t.mu.Lock()
	t.inst.add(t.cap, instant{name: name, cat: cat, tid: tid, at: at})
	t.mu.Unlock()
}

// Spans returns a copy of the retained spans in recording order (oldest
// first; the ring keeps the most recent window).
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans.ordered()
}

// Dropped reports how many events were discarded past the retention cap.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans.dropped + t.inst.dropped
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

// WriteChromeTrace writes the recorded events as a Chrome trace-event JSON
// object ({"traceEvents": [...]}), loadable by chrome://tracing and
// ui.perfetto.dev. Parent links that resolve within this tracer are
// rendered as flow arrows; links whose parent lives in another process
// only materialize in WriteMergedChromeTrace.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"traceEvents":[]}`)
		return err
	}
	t.mu.Lock()
	spans := t.spans.ordered()
	insts := t.inst.ordered()
	names := make(map[int]string, len(t.threads))
	for tid, name := range t.threads {
		names[tid] = name
	}
	t.mu.Unlock()

	events := make([]traceEvent, 0, len(spans)+len(insts)+len(names))
	events = append(events, threadNameEvents(1, names)...)
	placed := make([]placedSpan, 0, len(spans))
	for _, sp := range spans {
		p := placedSpan{span: sp, pid: 1, ts: usOf(sp.Start)}
		placed = append(placed, p)
		events = append(events, spanEvent(sp, 1, p.ts))
	}
	for _, in := range insts {
		events = append(events, traceEvent{
			Name: in.name, Cat: in.cat, Ph: "i", PID: 1, TID: in.tid, S: "t",
			TS: usOf(in.at),
		})
	}
	events = append(events, flowEvents(placed)...)
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events})
}

// WriteChromeTraceFile writes the trace to a file at path.
func (t *Tracer) WriteChromeTraceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("obs: writing trace to %s: %w", path, err)
	}
	return f.Close()
}
