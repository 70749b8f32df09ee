package distps

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// tracedShards boots n shards with per-shard registries and tracers whose
// span-id spaces are disjoint (shard i gets base (i+1)<<48, matching the
// binaries), plus a traced client over them.
func tracedShards(t *testing.T, sc Scenario, n int) ([]*Shard, *Client) {
	t.Helper()
	shards, addrs := startShards(t, sc, n, func(cfg *ShardConfig) {
		cfg.Trace = obs.NewTracer(nil)
		cfg.Trace.SetSpanIDBase(uint64(cfg.ID+1) << 48)
	})
	ccfg := sc.clientConfig(1, addrs)
	ccfg.Timeout = 2 * time.Second
	ccfg.Retry = fastBackoff()
	ccfg.Metrics = obs.NewRegistry()
	ccfg.Trace = obs.NewTracer(nil)
	c, err := newClient(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return shards, c
}

// TestStatsRPCRoundTrip exercises the msgStats exchange against a live
// shard: the ack must carry the shard's metrics snapshot (including the
// server-side per-type latency histograms fed by this very conversation),
// its span window with trace context intact, and its thread names.
func TestStatsRPCRoundTrip(t *testing.T) {
	sc := testScenario()
	_, c := tracedShards(t, sc, 1)
	ctx := context.Background()

	if err := c.helloAll(ctx); err != nil {
		t.Fatalf("HelloAll: %v", err)
	}

	st, err := c.stats(ctx, 0, 0)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.ShardID != 0 {
		t.Fatalf("ShardID = %d, want 0", st.ShardID)
	}
	if st.EpochUnixNanos == 0 {
		t.Fatal("tracer epoch missing")
	}
	// The hello we just sent must show up in the shard's own server-side
	// telemetry.
	if got := st.Metrics.Histograms["distps_srv_hello_ns"].Count; got == 0 {
		t.Fatal("distps_srv_hello_ns count = 0, want the hello this test sent")
	}
	if st.Metrics.Counters["distps_srv_bytes_in"] == 0 || st.Metrics.Counters["distps_srv_bytes_out"] == 0 {
		t.Fatalf("server byte counters empty: %v", st.Metrics.Counters)
	}
	var sawHandler bool
	for _, sp := range st.Spans {
		if !strings.HasPrefix(sp.Name, "handle:") {
			continue
		}
		sawHandler = true
		if sp.ID>>48 != 1 {
			t.Fatalf("shard span id %#x does not carry the shard's id base", sp.ID)
		}
		if sp.Trace == 0 || sp.Parent == 0 {
			t.Fatalf("handler span lost its propagated trace context: %+v", sp)
		}
	}
	if !sawHandler {
		t.Fatal("no handler spans in the stats window")
	}
	if len(st.Threads) == 0 {
		t.Fatal("no thread names in the stats ack")
	}

	// A bounded window really bounds: ask for one span, get at most one,
	// and the shard reports what fell off.
	st1, err := c.stats(ctx, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(st1.Spans) > 1 {
		t.Fatalf("MaxSpans=1 returned %d spans", len(st1.Spans))
	}

	// Client-side satellites of the same conversation: byte counters and
	// the clock offset gauge the Stats exchange set.
	snap := c.cfg.Metrics.Snapshot()
	if snap.Counters["distps_rpc_bytes_in"] == 0 || snap.Counters["distps_rpc_bytes_out"] == 0 {
		t.Fatalf("client byte counters empty: %v", snap.Counters)
	}
	if _, ok := snap.Gauges["distps_shard0_clock_offset_ns"]; !ok {
		t.Fatalf("clock offset gauge missing: %v", snap.Gauges)
	}
}

// TestClusterStatsKeepsDeadShardVisible: the merged view must degrade, not
// disappear, when a shard dies — the dead shard appears with Err set while
// the live one still reports metrics.
func TestClusterStatsKeepsDeadShardVisible(t *testing.T) {
	sc := testScenario()
	shards, c := tracedShards(t, sc, 2)
	ctx := context.Background()
	if err := c.helloAll(ctx); err != nil {
		t.Fatal(err)
	}
	shards[1].Close()

	reg, tr := obs.NewRegistry(), obs.NewTracer(nil)
	view := clusterStats(ctx, c, reg, tr)
	if len(view.Shards) != 2 {
		t.Fatalf("view has %d shards, want 2", len(view.Shards))
	}
	if view.Shards[0].Err != "" {
		t.Fatalf("live shard reports error: %q", view.Shards[0].Err)
	}
	if view.Shards[0].Metrics.Histograms["distps_srv_hello_ns"].Count == 0 {
		t.Fatal("live shard's metrics missing from the view")
	}
	if view.Shards[1].Err == "" {
		t.Fatal("dead shard must appear with Err set, not silently vanish")
	}
}

// skewedClock is the system clock shifted by a fixed amount: a host whose
// wall clock is off by d.
type skewedClock struct{ d time.Duration }

func (c skewedClock) Now() time.Time { return time.Now().Add(c.d) }

// TestClockOffsetFromStats: with shard 0's clock (and its tracer's) an hour
// ahead, the Stats exchange every scrape makes measures the skew. The
// offset /cluster reports and the distps_shard0_clock_offset_ns gauge read
// +1 h, and shard 1 (on the worker's clock) 0, each within half the
// scrape's duration (the estimate's error is at most half its own round
// trip, which the scrape contains). The merged trace subtracts the offset:
// the shard's handle:hello span lands inside the worker's hello span.
func TestClockOffsetFromStats(t *testing.T) {
	sc := testScenario()
	const skew = time.Hour
	addrs := make([]string, 2)
	for i := range addrs {
		cfg := sc.ShardConfig(i, 2, t.TempDir())
		cfg.DrainTimeout = 50 * time.Millisecond
		var clock obs.Clock
		if i == 0 {
			clock = skewedClock{skew}
		}
		cfg.Trace = obs.NewTracer(clock)
		cfg.Trace.SetSpanIDBase(uint64(i+1) << 48)
		s, err := NewShard(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if clock != nil {
			s.clock = clock
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		serveShard(s, ln)
		t.Cleanup(func() { s.Close() })
		addrs[i] = ln.Addr().String()
	}
	ccfg := sc.clientConfig(1, addrs)
	ccfg.Timeout = 2 * time.Second
	ccfg.Retry = fastBackoff()
	ccfg.Metrics = obs.NewRegistry()
	ccfg.Trace = obs.NewTracer(nil)
	c, err := newClient(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	ctx := context.Background()
	if err := c.helloAll(ctx); err != nil {
		t.Fatal(err)
	}

	near := func(what string, got, want int64, bound time.Duration) {
		t.Helper()
		if d := got - want; d < -int64(bound) || d > int64(bound) {
			t.Fatalf("%s = %v, want %v ± %v", what, time.Duration(got), time.Duration(want), bound)
		}
	}
	start := time.Now()
	view := clusterStats(ctx, c, obs.NewRegistry(), obs.NewTracer(nil))
	bound := time.Since(start) / 2
	gauges := c.cfg.Metrics.Snapshot().Gauges
	for i, want := range []time.Duration{skew, 0} {
		if view.Shards[i].Err != "" {
			t.Fatalf("shard %d: %s", i, view.Shards[i].Err)
		}
		near(fmt.Sprintf("shard %d ClockOffsetNS", i), view.Shards[i].ClockOffsetNS, int64(want), bound)
		near(fmt.Sprintf("distps_shard%d_clock_offset_ns", i),
			int64(gauges[fmt.Sprintf("distps_shard%d_clock_offset_ns", i)]), int64(want), bound)
	}

	var buf bytes.Buffer
	start = time.Now()
	if err := writeClusterTrace(ctx, &buf, c, ccfg.Trace); err != nil {
		t.Fatal(err)
	}
	slackUS := float64(time.Since(start)/2)/float64(time.Microsecond) + 1
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	type window struct{ from, to float64 }
	hellos := map[string]window{} // worker hello span id -> its extent
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.PID == 1 && ev.Name == "hello" {
			id, _ := ev.Args["span"].(string)
			hellos[id] = window{ev.TS, ev.TS + ev.Dur}
		}
	}
	placed := false
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.PID != 2 || ev.Name != "handle:hello" {
			continue
		}
		parent, _ := ev.Args["parent"].(string)
		w, ok := hellos[parent]
		if !ok {
			continue
		}
		if ev.TS < w.from-slackUS || ev.TS > w.to+slackUS {
			t.Fatalf("shard 0's handle:hello at %.0fµs lies outside its worker hello span [%.0f, %.0f]µs ± %.0fµs",
				ev.TS, w.from, w.to, slackUS)
		}
		placed = true
	}
	if !placed {
		t.Fatal("no shard 0 handle:hello span linked to a worker hello span in the merged trace")
	}
}

// TestClusterTraceFromLiveRun drives a real distributed training run and
// then asserts the acceptance-shaped property end to end: the merged
// cluster trace contains a worker-side gather span and a shard-side
// handle:gather span sharing a trace id, linked parent→child, with a flow
// event pair drawn between them.
func TestClusterTraceFromLiveRun(t *testing.T) {
	sc := testScenario()
	const steps, batch = 10, 16
	_, addrs := startShards(t, sc, 2, func(cfg *ShardConfig) {
		cfg.Trace = obs.NewTracer(nil)
		cfg.Trace.SetSpanIDBase(uint64(cfg.ID+1) << 48)
	})
	src := testDataset(t, sc)

	wcfg := testWorkerConfig(sc, 1, addrs)
	w, err := NewWorker(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	if _, err := w.Run(context.Background(), src, steps, batch); err != nil {
		t.Fatalf("Run: %v", err)
	}

	var buf bytes.Buffer
	if err := writeClusterTrace(context.Background(), &buf, w.Client(), wcfg.Trace); err != nil {
		t.Fatalf("writeClusterTrace: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			ID   uint64         `json:"id"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("merged trace is not valid JSON: %v", err)
	}

	// Index worker gather spans by span id, then find a shard handler span
	// whose parent is one of them with a matching trace id.
	workerGather := map[string]string{} // span id -> trace id (hex strings from Args)
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.PID == 1 && ev.Name == "gather" {
			span, _ := ev.Args["span"].(string)
			trace, _ := ev.Args["trace"].(string)
			workerGather[span] = trace
		}
	}
	if len(workerGather) == 0 {
		t.Fatal("merged trace has no worker-side gather spans")
	}
	linked := false
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.PID < 2 || ev.Name != "handle:gather" {
			continue
		}
		parent, _ := ev.Args["parent"].(string)
		trace, _ := ev.Args["trace"].(string)
		if wantTrace, ok := workerGather[parent]; ok && wantTrace == trace {
			linked = true
			break
		}
	}
	if !linked {
		t.Fatal("no shard handle:gather span is parent-linked to a worker gather span with a shared trace id")
	}

	flows := map[uint64]int{} // flow id -> bitmask: 1 = start seen, 2 = finish seen
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "s":
			flows[ev.ID] |= 1
		case "f":
			flows[ev.ID] |= 2
		}
	}
	paired := 0
	for _, mask := range flows {
		if mask == 3 {
			paired++
		}
	}
	if paired == 0 {
		t.Fatal("no paired s/f flow events in the merged trace")
	}
}

// TestClusterAndHealthHandlers checks the HTTP surface a worker and a shard
// mount on the obs debug mux: /cluster serves the merged JSON view,
// /healthz answers 200, and /readyz reflects worker/shard readiness with
// 200 vs 503.
func TestClusterAndHealthHandlers(t *testing.T) {
	sc := testScenario()
	shards, _ := tracedShards(t, sc, 1)
	get := func(h http.Handler, path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}

	// Shard side: a fresh (first-boot) shard is restored → ready.
	sh := obs.Handler(nil, nil, shards[0].Ready, nil)
	for path, wantCode := range map[string]int{"/healthz": 200, "/readyz": 200} {
		if rec := get(sh, path); rec.Code != wantCode {
			t.Fatalf("shard %s = %d, want %d", path, rec.Code, wantCode)
		}
	}
	// Drain the shard: /readyz must flip to 503 while /healthz stays 200.
	shards[0].Close()
	if rec := get(sh, "/readyz"); rec.Code != 503 {
		t.Fatalf("closed shard /readyz = %d, want 503", rec.Code)
	}

	// Worker side: boot a fresh shard set and a real worker, but don't run
	// it — /readyz is 503 outside Train, /cluster still serves a full view.
	_, addrs := startShards(t, sc, 2, func(cfg *ShardConfig) {
		cfg.Trace = obs.NewTracer(nil)
		cfg.Trace.SetSpanIDBase(uint64(cfg.ID+1) << 48)
	})
	wcfg := testWorkerConfig(sc, 2, addrs)
	w, err := NewWorker(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })

	wh := obs.Handler(wcfg.Metrics, wcfg.Trace, w.Active,
		ClusterHandlers(w, wcfg.Metrics, wcfg.Trace, time.Second))
	if rec := get(wh, "/healthz"); rec.Code != 200 {
		t.Fatalf("worker /healthz = %d, want 200", rec.Code)
	}
	if rec := get(wh, "/readyz"); rec.Code != 503 {
		t.Fatalf("idle worker /readyz = %d, want 503", rec.Code)
	}

	rec := get(wh, "/cluster")
	if rec.Code != 200 {
		t.Fatalf("/cluster = %d, want 200", rec.Code)
	}
	var view ClusterView
	if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
		t.Fatalf("/cluster body is not a ClusterView: %v", err)
	}
	if len(view.Shards) != 2 {
		t.Fatalf("/cluster reports %d shards, want 2", len(view.Shards))
	}
	for _, sv := range view.Shards {
		if sv.Err != "" {
			t.Fatalf("shard %d unreachable through /cluster: %s", sv.Shard, sv.Err)
		}
	}

	rec = get(wh, "/cluster/trace")
	if rec.Code != 200 {
		t.Fatalf("/cluster/trace = %d, want 200", rec.Code)
	}
	var tdoc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &tdoc); err != nil {
		t.Fatalf("/cluster/trace body is not a trace document: %v", err)
	}
}
