package ps

import (
	"fmt"

	"repro/internal/data"
)

// newLookahead builds the per-Train window planner, or nil when lookahead
// is disabled or there is nothing to plan. The planner is per Train call:
// windows are aligned to startIter and plan storage is recycled through the
// window pool for the duration of the run.
func (p *Pipeline) newLookahead(d BatchSource, batchSize int) (*data.Lookahead, error) {
	if p.cfg.Lookahead <= 1 || (len(p.stores) == 0 && len(p.protectors) == 0) {
		return nil, nil
	}
	cfg := data.LookaheadConfig{
		Window: p.cfg.Lookahead,
		Batch:  batchSize,
		Budget: p.cfg.LookaheadBudget,
	}
	for h, pos := range p.hostIdx {
		cfg.Tables = append(cfg.Tables, pos)
		cfg.Rows = append(cfg.Rows, p.stores[h].NumRows())
	}
	cfg.DeviceTables = append(cfg.DeviceTables, p.protectPos...)
	cfg.DeviceRows = append(cfg.DeviceRows, p.protectRows...)
	la, err := data.NewLookahead(d, cfg)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidConfig, err)
	}
	return la, nil
}

// nextWindow returns the size of the next planning window given the
// previous one (0 for the first window of a Train call). Windows start
// only at iteration 1 — batch 0 rides the plain LC-cache path so the
// pre-fetcher can hand it to the worker immediately and plan the first
// window during that step's compute. The first window is clipped near the
// queue depth and subsequent windows double up to the configured size:
// planning a full window on a cold pipeline stalls the worker behind
// Window×Tables index-stream generation, while the ramp lets full-window
// planning overlap with training once the prefetch queue has filled. The
// schedule depends only on configuration, never on timing, so ramped runs
// stay bit-exact.
func (p *Pipeline) nextWindow(prev int) int {
	n := 2 * prev
	if prev == 0 {
		n = p.cfg.QueueDepth
		if n < 2 {
			n = 2
		}
	}
	if n > p.cfg.Lookahead {
		n = p.cfg.Lookahead
	}
	return n
}

// advanceWindow plans an n-batch window starting at iter (truncated to the
// remaining steps), counts it, and installs each device table's protection
// set — the window's recurring rows, shielded from device-cache recycling.
func (p *Pipeline) advanceWindow(la *data.Lookahead, iter, n, remaining int) *data.WindowPlan {
	if remaining < n {
		n = remaining
	}
	plan := la.Advance(iter, n)
	p.m.lookaheadWindows.Inc()
	for k, prot := range p.protectors {
		prot.ProtectPrefixes(plan.Device[k].IDs)
	}
	return plan
}

// clearProtection drops the device tables' lookahead protection sets so a
// finished run's last window cannot pin device-cache slots indefinitely.
func (p *Pipeline) clearProtection() {
	for _, prot := range p.protectors {
		prot.ProtectPrefixes(nil)
	}
}
