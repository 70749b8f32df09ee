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

// DefaultRetryPolicy is the production policy: 3 retries, 1ms→50ms backoff.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxRetries: 3, BaseDelay: time.Millisecond, MaxDelay: 50 * time.Millisecond}
}

// withDefaults fills zero fields.
func (r RetryPolicy) withDefaults() RetryPolicy {
	d := DefaultRetryPolicy()
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
// served in place (the operation proceeds after the delay); transient
// faults are counted and returned for the retry loop.
func (p *Pipeline) injectFault(op faults.Op, iter, attempt int) error {
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
		p.sleep(stall.D)
		sp.End()
		return nil
	}
	p.m.injectedFaults.Inc()
	p.tracer.Instant("fault", "fault", tidForOp(op))
	return err
}

// sleep waits for d via the retry policy's hook (or a real sleep).
func (p *Pipeline) sleep(d time.Duration) {
	if p.retry.Sleep != nil {
		p.retry.Sleep(d)
		return
	}
	time.Sleep(d)
}

// backoff records and serves the delay before retry `attempt`, traced as a
// backoff span on stage thread tid. A non-nil ctx aborts the wait on
// cancellation (used on the gather side; the apply side passes nil because
// pending gradients must land even during a cancelled drain).
func (p *Pipeline) backoff(ctx context.Context, tid, attempt int) error {
	d := p.retry.Delay(attempt)
	p.m.retries.Inc()
	p.m.backoffNS.Add(int64(d))
	p.tracer.Instant("retry", "fault", tid)
	sp := p.tracer.Begin("backoff", "fault", tid)
	defer sp.End()
	if p.retry.Sleep != nil {
		p.retry.Sleep(d)
	} else if ctx == nil {
		time.Sleep(d)
	} else {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if ctx != nil {
		return ctx.Err()
	}
	return nil
}
