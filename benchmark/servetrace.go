package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/served"
	"repro/internal/tensor"
)

// recorder is the minimal http.ResponseWriter the handler layer is timed
// against: it keeps the status and the body, nothing else.
type recorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) WriteHeader(status int)      { r.status = status }
func (r *recorder) Write(p []byte) (int, error) { return r.body.Write(p) }

// runServeTraced is the traced run: the onion replay (every request sent
// through the binary and then re-issued in process one layer further in
// each time, a span per layer call), one /reload under load, and a scrape
// of the binary's own /metrics.
func runServeTraced(ctx context.Context, o options, name string, candidates int) (*runResult, error) {
	r, err := startServeRun(ctx, o, name, candidates, 1, nil)
	if err != nil {
		return nil, err
	}
	defer r.close()
	res := r.res
	clock := obs.System()
	tr := obs.NewTracer(nil)
	tr.SetThreadName(tidBench, "benchmark")
	v := map[string]float64{}

	// The in-process pool is configured as the binary configures its own.
	pool, err := served.New(r.model, r.item, scoreBatch, served.Options{Replicas: 2, QueueDepth: 256, MaxCoalesce: 8})
	if err != nil {
		return nil, err
	}
	defer pool.Close()
	handler := pool.Handler()
	batcher := r.ranker.NewBatcher()
	embs := make([]*tensor.Matrix, len(r.model.Tables))
	client := r.gen.conns[0]
	var body bytes.Buffer

	// Untraced baseline for the tracing overhead, same connection.
	untraced, _ := r.gen.driveCount(ctx, 200)

	budget := time.Duration(o.seconds * 0.5 * float64(time.Second))
	start := clock.Now()
	first := int(r.gen.next.Load())
	n, most := 0, r.profile.traced
	for ; n < most && (n < most/20 || obs.Since(clock, start) < budget) && ctx.Err() == nil; n++ {
		q := &r.reqs[(first+n)%len(r.reqs)]
		res.Attempted++
		root := tr.BeginTrace("request", "served", tidBench)

		// The in-process passes below leave the server idle for several
		// request times; an unrecorded request first makes the recorded one
		// find it as warm as the in-process layers find their caches.
		var want []float32
		_, _, err = r.gen.post(ctx, client, q, &body)
		if err == nil {
			span(tr, root, "served.loopback", func() { _, want, err = r.gen.post(ctx, client, q, &body) })
		}
		if err != nil {
			res.fail("traced request %d: %v", n, err)
			root.End()
			continue
		}

		rec := &recorder{header: http.Header{}}
		hr, err := http.NewRequestWithContext(ctx, http.MethodPost, "/score", bytes.NewReader(q.body))
		if err != nil {
			return nil, err
		}
		span(tr, root, "served.handler", func() { handler.ServeHTTP(rec, hr) })
		if rec.status != http.StatusOK {
			res.fail("traced request %d: in-process handler answered %d", n, rec.status)
		}

		var pooled, ranked []float32
		var poolErr, rankErr error
		span(tr, root, "served.pool_score", func() { pooled, poolErr = pool.ScoreDeadline(q.ctx, q.candidates, 0) })
		span(tr, root, "serve.ranker_score", func() { ranked, rankErr = r.ranker.Score(q.ctx, q.candidates) })

		// Ranker.Score re-issued as its constituent calls: per chunk of
		// scoreBatch candidates a batch build and a model forward, the
		// forward itself decomposed into its table lookups and dense parts.
		replayed := make([]float32, 0, len(q.candidates))
		for lo := 0; lo < len(q.candidates); lo += scoreBatch {
			hi := min(lo+scoreBatch, len(q.candidates))
			var in *data.Batch
			span(tr, root, "serve.batcher_build", func() { in = batcher.Build(q.ctx, q.candidates[lo:hi]) })
			fwd := tr.BeginChild("dlrm.forward", "dlrm", tidBench, root.Context())
			var z0, x, logits *tensor.Matrix
			span(tr, fwd, "nn.forward", func() { z0 = r.model.Bottom.Forward(in.Dense) })
			for t, tbl := range r.model.Tables {
				span(tr, fwd, tableLayer(tbl)+".lookup", func() { embs[t] = tbl.Lookup(in.Sparse[t], in.Offsets) })
			}
			span(tr, fwd, "nn.forward", func() {
				x = r.model.Interaction.Forward(z0, embs)
				logits = r.model.Top.Forward(x)
				replayed = append(replayed, nn.SigmoidSlice(logits.Data)...)
			})
			fwd.End()
		}
		root.End()

		if poolErr != nil || rankErr != nil {
			res.fail("traced request %d: pool %v, ranker %v", n, poolErr, rankErr)
			continue
		}
		for _, got := range [][]float32{pooled, ranked, replayed} {
			if !sameBits(got, want) {
				res.fail("traced request %d: an in-process layer's scores differ from the binary's", n)
				break
			}
		}
	}
	res.Samples["traced_requests"] = n

	ops := collectOps(tr.Spans(), "request")
	p50 := func(name string) float64 { return median(partValues(ops, name, us)) }
	for _, layer := range []string{
		"served.loopback", "served.handler", "served.pool_score", "serve.ranker_score",
		"serve.batcher_build", "dlrm.forward", "tt.lookup", "embedding.lookup", "nn.forward",
	} {
		v[layer+"_p50_us"] = p50(layer)
	}
	// Self time of a layer: what it takes beyond the layers one step in,
	// differenced within each request (the passes of one request run within
	// milliseconds of each other; the p50s of whole passes do not) and then
	// medianed.
	self := func(outer string, inner ...string) float64 {
		diffs := make([]float64, len(ops))
		for i, op := range ops {
			d := op.parts[outer]
			for _, name := range inner {
				d -= op.parts[name]
			}
			diffs[i] = us(d)
		}
		return median(diffs)
	}
	v["served.net_self_us"] = self("served.loopback", "served.handler")                         // TCP/HTTP and the client
	v["served.json_self_us"] = self("served.handler", "served.pool_score")                      // JSON decode/encode, mux
	v["served.queue_self_us"] = self("served.pool_score", "serve.ranker_score")                 // admission queue, channel hops
	v["serve.rank_self_us"] = self("serve.ranker_score", "serve.batcher_build", "dlrm.forward") // validation, chunking
	v["bench.trace_overhead_share"] = ratio(v["served.loopback_p50_us"], median(untraced)) - 1
	v["diag.latency_p99_us"] = quantile(sortedCopy(partValues(ops, "served.loopback", us)), 0.99)

	// Two closed-loop connections: the rate the issue wanted end to end,
	// demoted because it does not repeat on two contended vCPUs.
	window := time.Duration(math.Max(0.5, o.seconds*0.15) * float64(time.Second))
	lats, wall := r.gen.driveFor(ctx, 2, window)
	v["diag.throughput_2conn_per_s"] = float64(len(lats)) / wall.Seconds()
	reloadUnderLoad(ctx, window, r, v)
	if err := scrapeServerMetrics(ctx, r.srv.url, v); err != nil {
		return nil, err
	}
	r.srv.stop()
	r.gen.verifyFirst(r.ranker)

	if st, err := os.Stat(r.ckpt); err == nil {
		v["checkpoint.model_bytes"] = float64(st.Size())
	}
	var reqBytes int
	for i := range r.reqs {
		reqBytes += len(r.reqs[i].body)
	}
	v["bench.request_bytes"] = ratio(float64(reqBytes), float64(len(r.reqs)))
	v["bench.response_bytes"] = r.gen.meanResponseBytes()
	// The start-up training loss the binary logged; 0 if the line is missing.
	v["diag.final_loss"], _ = strconv.ParseFloat(r.srv.log.field("startup training done", "final_loss"), 64)

	res.TraceFile = filepath.Join(o.outDir, "trace_"+name+".json")
	if err := tr.WriteChromeTraceFile(res.TraceFile); err != nil {
		return nil, err
	}
	emit(res, perLayerMetrics, v)
	return res, nil
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// postReload asks the server to hot-swap the checkpoint at path and returns
// how long the swap took.
func postReload(ctx context.Context, url, path string) (time.Duration, error) {
	payload, err := json.Marshal(served.ReloadRequest{Path: path})
	if err != nil {
		return 0, err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/reload", bytes.NewReader(payload))
	if err != nil {
		return 0, err
	}
	clock := obs.System()
	t0 := clock.Now()
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body) // only quoted in the error below
	took := obs.Since(clock, t0)
	if resp.StatusCode != http.StatusOK {
		return took, fmt.Errorf("/reload answered %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	return took, nil
}

// reloadUnderLoad keeps two connections scoring while one POST /reload swaps
// the saved checkpoint back in: the swap must not fail a single request.
func reloadUnderLoad(ctx context.Context, window time.Duration, r *serveRun, v map[string]float64) {
	failedBefore := r.res.Failed

	type outcome struct {
		took time.Duration
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		time.Sleep(window / 3) // let the load reach steady state first
		took, err := postReload(ctx, r.srv.url, r.ckpt)
		done <- outcome{took, err}
	}()
	lats, _ := r.gen.driveFor(ctx, 2, window)
	out := <-done
	r.res.Attempted++
	if out.err != nil {
		r.res.fail("reload under load: %v", out.err)
	}
	v["served.reload_ms"] = ms(out.took)
	v["served.reload_failed"] = float64(r.res.Failed - failedBefore)
	v["served.reload_p99_us"] = quantile(sortedCopy(lats), 0.99)
	r.res.Samples["reload_window_requests"] = len(lats)
}

// scrapeServerMetrics reads the binary's own instruments from GET /metrics.
func scrapeServerMetrics(ctx context.Context, url string, v map[string]float64) error {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		return fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return fmt.Errorf("scrape /metrics: %w", err)
	}
	wait, exec := snap.Histograms["serve_queue_wait_ns"], snap.Histograms["serve_exec_ns"]
	v["served.queue_wait_p50_us"] = wait.P50 / 1e3
	v["served.queue_wait_p99_us"] = wait.P99 / 1e3
	v["served.exec_p50_us"] = exec.P50 / 1e3
	v["served.exec_p99_us"] = exec.P99 / 1e3
	v["served.coalesced_mean"] = snap.Histograms["serve_coalesced_batch_size"].Mean
	v["served.shed_overload"] = float64(snap.Counter("serve_shed_overload"))
	v["served.shed_deadline"] = float64(snap.Counter("serve_shed_deadline"))
	v["served.errors"] = float64(snap.Counter("serve_errors"))
	return nil
}
