package main

import (
	"strings"
	"time"

	"repro/internal/obs"
)

// tidBench is the trace lane of the benchmark's own spans; the ps pipeline
// records its gather/train/apply lanes on tids 1 to 3 of the same tracer.
const tidBench = 10

// span runs fn under a child span of parent named after the metric it
// feeds; the span's category is the layer, i.e. the package name before
// the first dot.
func span(tr *obs.Tracer, parent obs.SpanHandle, name string, fn func()) {
	layer, _, _ := strings.Cut(name, ".")
	sp := tr.BeginChild(name, layer, tidBench, parent.Context())
	fn()
	sp.End()
}

// tracedOp is one traced step or request: the duration of its root span,
// the summed duration of its direct children, and the summed duration of
// every descendant span by name.
type tracedOp struct {
	root     time.Duration
	children time.Duration
	parts    map[string]time.Duration
}

// collectOps groups the tracer's identified spans by trace id and returns
// the operations rooted at spans named rootName, in recording order.
func collectOps(spans []obs.Span, rootName string) []*tracedOp {
	byTrace := map[uint64]*tracedOp{}
	var ops []*tracedOp
	// A root ends after its children, so it is recorded after them: index
	// the roots first.
	for _, sp := range spans {
		if sp.Name == rootName && sp.ID != 0 && sp.Trace == sp.ID {
			op := &tracedOp{root: sp.Dur, parts: map[string]time.Duration{}}
			byTrace[sp.Trace] = op
			ops = append(ops, op)
		}
	}
	for _, sp := range spans {
		op := byTrace[sp.Trace]
		if op == nil || sp.ID == sp.Trace {
			continue
		}
		op.parts[sp.Name] += sp.Dur
		if sp.Parent == sp.Trace {
			op.children += sp.Dur
		}
	}
	return ops
}

// partValues returns, per operation, the time spent in spans named name.
func partValues(ops []*tracedOp, name string, unit func(time.Duration) float64) []float64 {
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = unit(op.parts[name])
	}
	return out
}
