package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestDebugEndpointServesMetricsAndTrace(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("ps_steps").Add(42)
	reg.Histogram("serve_score_ns").Observe(1000)
	clk := NewManual(time.Unix(0, 0))
	tr := NewTracer(clk)
	h := tr.Begin("train", "ps", 2)
	clk.Advance(time.Millisecond)
	h.End()

	srv := httptest.NewServer(Handler(reg, tr, nil, nil))
	defer srv.Close()

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return body
	}

	var snap Snapshot
	if err := json.Unmarshal(get("/metrics"), &snap); err != nil {
		t.Fatalf("/metrics is not valid JSON: %v", err)
	}
	if snap.Counter("ps_steps") != 42 {
		t.Fatalf("/metrics ps_steps = %d, want 42", snap.Counter("ps_steps"))
	}
	if snap.Histograms["serve_score_ns"].Count != 1 {
		t.Fatalf("/metrics histogram missing: %+v", snap.Histograms)
	}

	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(get("/trace"), &doc); err != nil {
		t.Fatalf("/trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("/trace has no events")
	}

	if body := get("/debug/pprof/cmdline"); len(body) == 0 {
		t.Fatal("/debug/pprof/cmdline empty")
	}
	if body := get("/"); len(body) == 0 {
		t.Fatal("index empty")
	}
}

func TestServeBindsAndCloses(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", NewRegistry(), nil, nil, nil)
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	var nilSrv *DebugServer
	if nilSrv.Addr() != "" || nilSrv.Close() != nil {
		t.Fatal("nil DebugServer must be inert")
	}
}

// TestHealthRoutesAndTraceWriter pins the two formats obs defines for every
// binary: /healthz and /readyz through Handler with a ready, a not-ready and
// a nil predicate, and WriteChromeTrace as WriteMergedChromeTrace over the
// tracer's own process, which rebases its earliest event to ts 0.
func TestHealthRoutesAndTraceWriter(t *testing.T) {
	yes := func() bool { return true }
	no := func() bool { return false }
	for _, tc := range []struct {
		name  string
		ready func() bool
		path  string
		code  int
		body  string
	}{
		{"ready", yes, "/healthz", http.StatusOK, `{"status":"ok"}`},
		{"ready", yes, "/readyz", http.StatusOK, `{"status":"ready"}`},
		{"not ready", no, "/healthz", http.StatusOK, `{"status":"ok"}`},
		{"not ready", no, "/readyz", http.StatusServiceUnavailable, `{"status":"not ready"}`},
		{"nil", nil, "/healthz", http.StatusOK, `{"status":"ok"}`},
		{"nil", nil, "/readyz", http.StatusOK, `{"status":"ok"}`},
	} {
		rec := httptest.NewRecorder()
		Handler(nil, nil, tc.ready, nil).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, tc.path, nil))
		body := strings.TrimSpace(rec.Body.String())
		if rec.Code != tc.code || body != tc.body || rec.Header().Get("Content-Type") != "application/json" {
			t.Errorf("%s %s: %d %s (%s), want %d %s", tc.name, tc.path, rec.Code, body,
				rec.Header().Get("Content-Type"), tc.code, tc.body)
		}
	}

	clk := NewManual(time.Unix(5, 0))
	tr := NewTracer(clk)
	tr.SetThreadName(2, "worker")
	clk.Advance(time.Millisecond)
	parent := tr.BeginTrace("rpc", "client", 2)
	clk.Advance(time.Millisecond)
	tr.BeginChild("handle", "server", 2, parent.Context()).End()
	parent.End()
	tr.Instant("retry", "client", 2)

	var got, want bytes.Buffer
	if err := tr.WriteChromeTrace(&got); err != nil {
		t.Fatal(err)
	}
	if err := WriteMergedChromeTrace(&want, []ProcessTrace{tr.Process("elrec", 1)}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("WriteChromeTrace:\n%s\nWriteMergedChromeTrace over the tracer's process:\n%s", got.String(), want.String())
	}
	if ts := tsOf(t, decodeTrace(t, tr), "rpc"); ts != 0 {
		t.Fatalf("earliest span at ts %v, want 0", ts)
	}
}
