package served

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/dlrm"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/tt"
)

func poolSpec() data.Spec {
	return data.Spec{
		Name: "served", NumDense: 3, TableRows: []int{100, 2000},
		ZipfS: 1.2, ZipfV: 2, GroupSize: 16, ActiveGroups: 4, Locality: 0.8,
		Samples: 1 << 20, Seed: 61,
	}
}

// poolModel trains a small mixed dense/Eff-TT model: table 1 (2000 rows) is
// TT-compressed and carries the candidate item feature.
func poolModel(t *testing.T) *dlrm.Model {
	t.Helper()
	tables, _, err := dlrm.BuildTables(poolSpec().TableRows,
		dlrm.TableSpec{Dim: 8, Rank: 4, TTThreshold: 1000, Opts: tt.EffOptions(), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	m, err := dlrm.NewModel(dlrm.Config{
		NumDense: 3, EmbDim: 8, BottomSizes: []int{8}, TopSizes: []int{8}, LR: 1.0, Seed: 4,
	}, tables)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := data.New(poolSpec())
	for it := 0; it < 20; it++ {
		m.TrainStep(d.Batch(it, 64))
	}
	return m
}

// poolContext derives a distinct valid request context from a seed.
func poolContext(seed int) serve.Context {
	return serve.Context{
		Dense:  []float32{0.5 + float32(seed)*0.25, -1, 0.2 * float32(seed)},
		Sparse: []int{(seed * 13) % 100, 0},
	}
}

func poolCandidates(seed int) []int {
	out := make([]int, 12)
	for i := range out {
		out[i] = (seed*31 + i*97) % 2000
	}
	return out
}

// TestPoolConcurrentMatchesSerial is the tentpole regression: ≥8 goroutines
// drive mixed Score/TopK traffic through a 4-replica pool under -race, and
// every result must be bit-identical to the serial serve.Ranker path on the
// source model. The same workload on one shared model (no pool) is a data
// race — that is the bug the replica pool fixes.
func TestPoolConcurrentMatchesSerial(t *testing.T) {
	m := poolModel(t)

	// Serial references first, before the pool's clones share the cores.
	serial, err := serve.NewRanker(m, 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const iters = 10
	wantScores := make([][]float32, goroutines)
	wantTop := make([][]serve.Scored, goroutines)
	for g := 0; g < goroutines; g++ {
		s, err := serial.Score(poolContext(g), poolCandidates(g))
		if err != nil {
			t.Fatal(err)
		}
		wantScores[g] = s
		top, err := serial.TopK(poolContext(g), poolCandidates(g), 5)
		if err != nil {
			t.Fatal(err)
		}
		wantTop[g] = top
	}

	p, err := New(m, 1, 16, Options{Replicas: 4, QueueDepth: 64, MaxCoalesce: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				scores, err := p.Score(poolContext(g), poolCandidates(g))
				if err != nil {
					errs <- fmt.Errorf("goroutine %d iter %d: %v", g, it, err)
					return
				}
				for i := range wantScores[g] {
					if scores[i] != wantScores[g][i] {
						errs <- fmt.Errorf("goroutine %d iter %d: score %d = %v, serial says %v", g, it, i, scores[i], wantScores[g][i])
						return
					}
				}
				top, err := p.TopK(poolContext(g), poolCandidates(g), 5)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d iter %d topk: %v", g, it, err)
					return
				}
				for i := range wantTop[g] {
					if top[i] != wantTop[g][i] {
						errs <- fmt.Errorf("goroutine %d iter %d: top[%d] = %+v, serial says %+v", g, it, i, top[i], wantTop[g][i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPoolOverloadSheds fills the bounded queue of a stopped pool (no
// workers draining) and checks the typed shed.
func TestPoolOverloadSheds(t *testing.T) {
	m := poolModel(t)
	reg := obs.NewRegistry()
	p, err := newPool(m, 1, 16, Options{QueueDepth: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := p.admit(&request{ctx: poolContext(0), candidates: []int{1}}); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	err = p.admit(&request{ctx: poolContext(0), candidates: []int{1}})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("full queue: err = %v, want ErrOverloaded", err)
	}
	snap := reg.Snapshot()
	if got := snap.Counter("serve_requests"); got != 3 {
		t.Fatalf("serve_requests = %d want 3", got)
	}
	if got := snap.Counter("serve_shed_overload"); got != 1 {
		t.Fatalf("serve_shed_overload = %d want 1", got)
	}
	if got := snap.Gauges["serve_queue_depth"]; got != 2 {
		t.Fatalf("serve_queue_depth = %v want 2", got)
	}
}

// TestPoolDeadlineSheds expires a queued request on a manual clock and
// drives the worker synchronously: the request must shed with ErrDeadline
// before any scoring happens.
func TestPoolDeadlineSheds(t *testing.T) {
	m := poolModel(t)
	clock := obs.NewManual(time.Unix(0, 0))
	reg := obs.NewRegistry()
	p, err := newPool(m, 1, 16, Options{QueueDepth: 4, Clock: clock, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	expired := &request{ctx: poolContext(1), candidates: poolCandidates(1), timeout: time.Millisecond}
	fresh := &request{ctx: poolContext(2), candidates: poolCandidates(2), timeout: time.Minute}
	if err := p.admit(expired); err != nil {
		t.Fatal(err)
	}
	if err := p.admit(fresh); err != nil {
		t.Fatal(err)
	}
	clock.Advance(5 * time.Millisecond)
	p.serveAdmitted(p.workers[0].rep, <-p.queue)
	resp := <-expired.done
	if !errors.Is(resp.err, ErrDeadline) {
		t.Fatalf("expired request: err = %v, want ErrDeadline", resp.err)
	}
	resp = <-fresh.done
	if resp.err != nil {
		t.Fatalf("fresh request shed: %v", resp.err)
	}
	if len(resp.scores) != len(fresh.candidates) {
		t.Fatalf("fresh request got %d scores", len(resp.scores))
	}
	if got := reg.Snapshot().Counter("serve_shed_deadline"); got != 1 {
		t.Fatalf("serve_shed_deadline = %d want 1", got)
	}
}

// TestPoolCoalescesWaitingRequests: with requests already queued, one
// serveAdmitted call must merge them into a single micro-batch whose scores
// match the serial path row for row.
func TestPoolCoalescesWaitingRequests(t *testing.T) {
	m := poolModel(t)
	serial, err := serve.NewRanker(m, 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	p, err := newPool(m, 1, 16, Options{QueueDepth: 8, MaxCoalesce: 8, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]*request, 3)
	for i := range reqs {
		reqs[i] = &request{ctx: poolContext(i), candidates: poolCandidates(i)}
		if err := p.admit(reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	p.serveAdmitted(p.workers[0].rep, <-p.queue)
	for i, req := range reqs {
		resp := <-req.done
		if resp.err != nil {
			t.Fatalf("request %d: %v", i, resp.err)
		}
		want, err := serial.Score(poolContext(i), poolCandidates(i))
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if resp.scores[j] != want[j] {
				t.Fatalf("request %d score %d: coalesced %v != serial %v", i, j, resp.scores[j], want[j])
			}
		}
	}
	snap := reg.Snapshot()
	co := snap.Histograms["serve_coalesced_batch_size"]
	if co.Count != 1 || co.Max != 3 {
		t.Fatalf("serve_coalesced_batch_size %+v, want one micro-batch of 3", co)
	}
	if snap.Histograms["serve_exec_ns"].Count != 1 {
		t.Fatal("serve_exec_ns not observed")
	}
	if snap.Histograms["serve_queue_wait_ns"].Count != 3 {
		t.Fatal("serve_queue_wait_ns must record every request")
	}
	// Candidates ÷ coalesced contexts is the reuse factor: 3 contexts of 12.
	if got := snap.Counter("serve_candidates"); got != 36 {
		t.Fatalf("serve_candidates = %d want 36", got)
	}
	if bs := snap.Histograms["serve_batch_size"]; bs.Count != 3 || bs.Max != 12 {
		t.Fatalf("serve_batch_size %+v, want 3 requests of 12 candidates", bs)
	}
	// A request that fails validation moves neither.
	invalid := &request{ctx: poolContext(0), candidates: []int{5000}}
	if err := p.admit(invalid); err != nil {
		t.Fatal(err)
	}
	p.serveAdmitted(p.workers[0].rep, <-p.queue)
	if resp := <-invalid.done; !errors.Is(resp.err, serve.ErrInvalidCandidate) {
		t.Fatalf("invalid candidate: err = %v", resp.err)
	}
	if got := reg.Snapshot().Counter("serve_candidates"); got != 36 {
		t.Fatalf("serve_candidates = %d after a rejected request, want 36", got)
	}
	if got := snap.Gauges["serve_queue_depth"]; got != 0 {
		t.Fatalf("serve_queue_depth = %v want 0 after drain", got)
	}
}

// TestPoolHydrateStage: the Hydrate callback runs once per micro-batch with
// one entry per live request, its latency is observed, scores are unchanged,
// and a hydrate error fails every request in the batch.
func TestPoolHydrateStage(t *testing.T) {
	m := poolModel(t)
	serial, err := serve.NewRanker(m, 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	var batches [][]HydrateRequest
	var fail error
	reg := obs.NewRegistry()
	p, err := newPool(m, 1, 16, Options{
		QueueDepth: 8, MaxCoalesce: 8, Metrics: reg,
		Hydrate: func(batch []HydrateRequest) error {
			copied := make([]HydrateRequest, len(batch))
			copy(copied, batch)
			batches = append(batches, copied)
			return fail
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]*request, 2)
	for i := range reqs {
		reqs[i] = &request{ctx: poolContext(i), candidates: poolCandidates(i)}
		if err := p.admit(reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	p.serveAdmitted(p.workers[0].rep, <-p.queue)
	if len(batches) != 1 || len(batches[0]) != 2 {
		t.Fatalf("hydrate saw %d batches of %d, want one batch of 2", len(batches), len(batches[0]))
	}
	for i, hr := range batches[0] {
		if hr.Ctx.Sparse[0] != poolContext(i).Sparse[0] || hr.Candidates[0] != poolCandidates(i)[0] {
			t.Fatalf("hydrate entry %d does not match request %d: %+v", i, i, hr)
		}
	}
	for i, req := range reqs {
		resp := <-req.done
		if resp.err != nil {
			t.Fatalf("request %d: %v", i, resp.err)
		}
		want, err := serial.Score(poolContext(i), poolCandidates(i))
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if resp.scores[j] != want[j] {
				t.Fatalf("request %d score %d: hydrated %v != serial %v", i, j, resp.scores[j], want[j])
			}
		}
	}
	if got := reg.Snapshot().Histograms["serve_hydrate_ns"].Count; got != 1 {
		t.Fatalf("serve_hydrate_ns count = %d want 1", got)
	}

	// A hydrate failure must fail the whole micro-batch, wrapped once.
	fail = errors.New("feature store down")
	bad := &request{ctx: poolContext(3), candidates: poolCandidates(3)}
	if err := p.admit(bad); err != nil {
		t.Fatal(err)
	}
	p.serveAdmitted(p.workers[0].rep, <-p.queue)
	resp := <-bad.done
	if !errors.Is(resp.err, fail) {
		t.Fatalf("hydrate failure: err = %v, want wrapped %v", resp.err, fail)
	}
	// The failed micro-batch still spent replica time: both are timed.
	if got := reg.Snapshot().Histograms["serve_exec_ns"].Count; got != 2 {
		t.Fatalf("serve_exec_ns count = %d want 2 (the hydrate failure included)", got)
	}
}

// TestPoolValidationErrors: bad requests come back with the serve sentinels
// and never reach the model.
func TestPoolValidationErrors(t *testing.T) {
	m := poolModel(t)
	p, err := New(m, 1, 16, Options{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Score(serve.Context{Dense: []float32{1}, Sparse: []int{0, 0}}, []int{1}); !errors.Is(err, serve.ErrInvalidContext) {
		t.Fatalf("bad context: err = %v, want serve.ErrInvalidContext", err)
	}
	if _, err := p.Score(poolContext(0), []int{5000}); !errors.Is(err, serve.ErrInvalidCandidate) {
		t.Fatalf("bad candidate: err = %v, want serve.ErrInvalidCandidate", err)
	}
	if _, err := p.TopK(poolContext(0), []int{1}, 0); !errors.Is(err, serve.ErrInvalidConfig) {
		t.Fatalf("k=0: err = %v, want serve.ErrInvalidConfig", err)
	}
}

// TestPoolCloseDrainsAndSheds: Close completes in-flight traffic, later
// requests shed with ErrShutdown, and double Close is safe.
func TestPoolCloseDrainsAndSheds(t *testing.T) {
	m := poolModel(t)
	p, err := New(m, 1, 16, Options{Replicas: 2, QueueDepth: 32})
	if err != nil {
		t.Fatal(err)
	}
	const inflight = 16
	var wg sync.WaitGroup
	errs := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := p.Score(poolContext(i%4), poolCandidates(i%4)); err != nil {
				errs <- fmt.Errorf("inflight %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	p.Close()
	p.Close() // idempotent
	if _, err := p.Score(poolContext(0), poolCandidates(0)); !errors.Is(err, ErrShutdown) {
		t.Fatalf("post-close: err = %v, want ErrShutdown", err)
	}
}

// TestPoolRejectsUnservableModel: a model with a table type the clone path
// cannot replicate must fail construction with dlrm.ErrNotServable.
func TestPoolRejectsUnservableModel(t *testing.T) {
	m := poolModel(t)
	if _, err := New(m, 9, 16, Options{}); !errors.Is(err, serve.ErrInvalidConfig) {
		t.Fatalf("bad item feature: err = %v, want serve.ErrInvalidConfig", err)
	}
	if _, err := New(m, 1, 0, Options{}); !errors.Is(err, serve.ErrInvalidConfig) {
		t.Fatalf("bad batch size: err = %v, want serve.ErrInvalidConfig", err)
	}
}
