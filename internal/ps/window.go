package ps

import (
	"fmt"
	"reflect"

	"repro/internal/data"
)

// windowSchedule decides which lookahead plan each batch of one Train call
// is gathered under; both schedules (the sequential loop and the pre-fetch
// goroutine) ask it batch by batch, in order. Windows are aligned to the
// call's first iteration and plan storage is recycled through the planner's
// pool for the duration of the run.
type windowSchedule struct {
	p    *Pipeline
	la   *data.Lookahead  // nil when lookahead is off or there is nothing to plan
	plan *data.WindowPlan // the current window; nil until the first one is planned
	next int              // first iteration past the current window
	end  int              // first iteration past the Train call
	size int              // untruncated size of the current window, 0 before the first
}

// newWindowSchedule builds the schedule for Train(startIter, steps).
func (p *Pipeline) newWindowSchedule(d BatchSource, startIter, steps, batchSize int) (*windowSchedule, error) {
	// The first batch is never planned (see planFor), so the first window
	// opens one iteration in.
	w := &windowSchedule{p: p, next: startIter + 1, end: startIter + steps}
	if p.cfg.Lookahead <= 1 || len(p.stores) == 0 {
		return w, nil
	}
	la, err := p.planner(d, batchSize)
	if err != nil {
		return nil, err
	}
	w.la = la
	return w, nil
}

// planner returns the lookahead planner over d at this batch size. It is
// kept for the next Train call over the same source and batch size, so the
// plan pool, scratch and stream buffers the first windows grew serve every
// later call instead of being rebuilt per call. Reuse is safe: a call's
// prefetcher has stopped before Train returns, and a plan a failed call
// never released is simply not reused.
func (p *Pipeline) planner(d BatchSource, batchSize int) (*data.Lookahead, error) {
	if p.la != nil && p.laBatch == batchSize && reflect.TypeOf(d).Comparable() && p.laSrc == d {
		return p.la, nil
	}
	cfg := data.LookaheadConfig{Window: p.cfg.Lookahead, Batch: batchSize}
	for h, pos := range p.hostIdx {
		cfg.Tables = append(cfg.Tables, pos)
		cfg.Rows = append(cfg.Rows, p.stores[h].NumRows())
	}
	la, err := data.NewLookahead(d, cfg)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", errInvalidConfig, err)
	}
	p.la, p.laSrc, p.laBatch = la, d, batchSize
	return la, nil
}

// planFor returns the plan batch iter is gathered under (nil: unplanned),
// planning the next window when iter is the first batch past the current
// one. The call's first batch is unplanned so the pre-fetcher can hand it to
// the worker immediately and plan the first window during that step's
// compute. The first window is the queue depth (at least 2) and later ones
// double, all capped at the configured size: planning a full window on a
// cold pipeline stalls the worker behind Window×Tables index-stream
// generation, while the ramp lets full-window planning overlap with training
// once the prefetch queue has filled. The schedule depends only on
// configuration, never on timing, so ramped runs stay bit-exact.
func (w *windowSchedule) planFor(iter int) *data.WindowPlan {
	if w.la == nil || iter != w.next {
		return w.plan
	}
	w.size = min(max(2*w.size, w.p.cfg.QueueDepth, 2), w.p.cfg.Lookahead)
	w.plan = w.la.Advance(iter, min(w.size, w.end-iter))
	w.next = iter + w.plan.N
	w.p.m.lookaheadWindows.Inc()
	return w.plan
}
