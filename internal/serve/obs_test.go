package serve

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// TestServeMetrics checks the request/error counters and the latency and
// batch-size histograms against a manual clock.
func TestServeMetrics(t *testing.T) {
	m := serveModel(t)
	r, err := NewRanker(m, 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	clock := obs.NewManual(time.Unix(0, 0))
	r.AttachMetrics(reg, clock)

	if _, err := r.Score(testContext(), []int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Score(Context{}, []int{1}); err == nil {
		t.Fatal("invalid context accepted")
	}
	if _, err := r.Score(testContext(), []int{5000}); err == nil {
		t.Fatal("invalid candidate accepted")
	}

	snap := reg.Snapshot()
	if got := snap.Counter("serve_requests"); got != 3 {
		t.Fatalf("serve_requests = %d want 3", got)
	}
	if got := snap.Counter("serve_errors"); got != 2 {
		t.Fatalf("serve_errors = %d want 2", got)
	}
	// Traffic volume excludes the rejected request: only the valid call's 3
	// candidates count, and the batch-size histogram saw one observation.
	if got := snap.Counter("serve_candidates"); got != 3 {
		t.Fatalf("serve_candidates = %d want 3 (rejected request must not count)", got)
	}
	bs := snap.Histograms["serve_batch_size"]
	if bs.Count != 1 || bs.Max != 3 || bs.Min != 3 {
		t.Fatalf("serve_batch_size summary %+v want count=1 min=3 max=3", bs)
	}
	if lat := snap.Histograms["serve_score_latency_ns"]; lat.Count != 3 {
		t.Fatalf("serve_score_latency_ns count = %d want 3", lat.Count)
	}

	// Detach restores the zero-cost path.
	r.AttachMetrics(nil, nil)
	if _, err := r.Score(testContext(), []int{1}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counter("serve_requests"); got != 3 {
		t.Fatalf("detached ranker still recorded: serve_requests = %d", got)
	}
}
