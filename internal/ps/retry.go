package ps

import (
	"context"
	"errors"
	"time"

	"repro/internal/faults"
)

// RetryPolicy bounds how transient failures are retried: capped
// exponential backoff starting at BaseDelay, doubling per attempt up to
// MaxDelay, for at most MaxRetries retries after the first attempt. The
// pipeline retries gather/apply faults under one; distps's transport
// retries RPCs under another, with its own defaults.
type RetryPolicy struct {
	MaxRetries int
	BaseDelay  time.Duration
	MaxDelay   time.Duration

	// Sleep overrides the backoff sleep; tests install a recorder so a
	// heavily faulted run still finishes in microseconds. Nil uses a real
	// timer.
	Sleep func(time.Duration)
}

// Wait serves one delay d — through the Sleep hook, or a timer that ctx's
// cancellation cuts short — and returns ctx's error.
func (r RetryPolicy) Wait(ctx context.Context, d time.Duration) error {
	if r.Sleep != nil {
		r.Sleep(d)
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
	return ctx.Err()
}

// defaultRetryPolicy is the production policy: 3 retries, 1ms→50ms backoff.
func defaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxRetries: 3, BaseDelay: time.Millisecond, MaxDelay: 50 * time.Millisecond}
}

// withDefaults fills zero fields.
func (r RetryPolicy) withDefaults() RetryPolicy {
	d := defaultRetryPolicy()
	if r.MaxRetries <= 0 {
		r.MaxRetries = d.MaxRetries
	}
	if r.BaseDelay <= 0 {
		r.BaseDelay = d.BaseDelay
	}
	if r.MaxDelay <= 0 {
		r.MaxDelay = d.MaxDelay
	}
	return r
}

// Delay is the backoff before retry `attempt` (0-based), capped at MaxDelay.
func (r RetryPolicy) Delay(attempt int) time.Duration {
	if attempt > 30 {
		return r.MaxDelay
	}
	d := r.BaseDelay << uint(attempt)
	if d <= 0 || d > r.MaxDelay {
		d = r.MaxDelay
	}
	return d
}

// tidForOp maps a fault-injection site to the trace thread of the pipeline
// stage it runs on.
func tidForOp(op faults.Op) int {
	switch op {
	case faults.OpGather:
		return tidPrefetch
	case faults.OpApply:
		return tidApply
	}
	return tidWorker
}

// injectFault consults the configured injector for one attempt. Stalls are
// served in place under ctx (the operation proceeds after the delay);
// transient faults are counted and returned for the retry loop.
func (p *Pipeline) injectFault(ctx context.Context, op faults.Op, iter, attempt int) error {
	if p.cfg.Faults == nil {
		return nil
	}
	err := p.cfg.Faults.Fault(op, iter, attempt)
	if err == nil {
		return nil
	}
	var stall *faults.Stall
	if errors.As(err, &stall) {
		p.m.stallNS.Add(int64(stall.D))
		p.m.stallHist.Observe(float64(stall.D))
		sp := p.tracer.Begin("stall", "fault", tidForOp(op))
		_ = p.retry.Wait(ctx, stall.D) // cancellation ends the stall; the caller reads ctx itself
		sp.End()
		return nil
	}
	p.m.injectedFaults.Inc()
	p.tracer.Instant("fault", "fault", tidForOp(op))
	return err
}

// backoff records and serves the delay before retry `attempt`, traced as a
// backoff span on stage thread tid, and returns ctx's error.
func (p *Pipeline) backoff(ctx context.Context, tid, attempt int) error {
	d := p.retry.Delay(attempt)
	p.m.retries.Inc()
	p.m.backoffNS.Add(int64(d))
	p.tracer.Instant("retry", "fault", tid)
	sp := p.tracer.Begin("backoff", "fault", tid)
	defer sp.End()
	return p.retry.Wait(ctx, d)
}
