package served

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

func postJSON(t *testing.T, h http.Handler, path string, body interface{}) *httptest.ResponseRecorder {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(buf))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestHTTPScoreAndTopK(t *testing.T) {
	m := poolModel(t)
	serial, err := serve.NewRanker(m, 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	ctx := poolContext(0)
	candidates := poolCandidates(0)
	wantScores, err := serial.Score(ctx, candidates)
	if err != nil {
		t.Fatal(err)
	}
	wantTop, err := serial.TopK(ctx, candidates, 3)
	if err != nil {
		t.Fatal(err)
	}

	p, err := New(m, 1, 16, Options{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	h := p.Handler()

	rec := postJSON(t, h, "/score", ScoreRequest{Dense: ctx.Dense, Sparse: ctx.Sparse, Candidates: candidates})
	if rec.Code != http.StatusOK {
		t.Fatalf("/score status %d: %s", rec.Code, rec.Body.String())
	}
	var sr ScoreResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Scores) != len(wantScores) {
		t.Fatalf("got %d scores want %d", len(sr.Scores), len(wantScores))
	}
	for i := range wantScores {
		if sr.Scores[i] != wantScores[i] {
			t.Fatalf("score %d: %v want %v", i, sr.Scores[i], wantScores[i])
		}
	}

	rec = postJSON(t, h, "/topk", ScoreRequest{Dense: ctx.Dense, Sparse: ctx.Sparse, Candidates: candidates, K: 3})
	if rec.Code != http.StatusOK {
		t.Fatalf("/topk status %d: %s", rec.Code, rec.Body.String())
	}
	var tr TopKResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Items) != len(wantTop) {
		t.Fatalf("got %d items want %d", len(tr.Items), len(wantTop))
	}
	for i := range wantTop {
		if tr.Items[i].Item != wantTop[i].Item || tr.Items[i].Score != wantTop[i].Score {
			t.Fatalf("top[%d] = %+v want %+v", i, tr.Items[i], wantTop[i])
		}
	}
}

func getPath(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// TestHTTPNegativeTimeoutRejected pins the deadline-policy fix: a negative
// timeout_ms must 400 instead of silently falling back to the pool default.
func TestHTTPNegativeTimeoutRejected(t *testing.T) {
	m := poolModel(t)
	p, err := New(m, 1, 16, Options{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	h := p.Handler()
	ctx := poolContext(0)
	for _, path := range []string{"/score", "/topk"} {
		rec := postJSON(t, h, path, ScoreRequest{
			Dense: ctx.Dense, Sparse: ctx.Sparse, Candidates: []int{1}, K: 1, TimeoutMS: -1,
		})
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s with timeout_ms=-1: status %d want 400: %s", path, rec.Code, rec.Body.String())
		}
	}
	// 0 still means "pool default", not an error.
	rec := postJSON(t, h, "/score", ScoreRequest{Dense: ctx.Dense, Sparse: ctx.Sparse, Candidates: []int{1}})
	if rec.Code != http.StatusOK {
		t.Fatalf("timeout_ms=0 status %d want 200: %s", rec.Code, rec.Body.String())
	}
}

// TestHTTPReload exercises the admin surface end to end: /healthz and
// /readyz answer on the obs debug mux, POST /reload (explicit path, then
// empty body for the default path) bumps the version, scoring works before
// and after, and the failure mappings (404 missing file, 405 GET) hold.
func TestHTTPReload(t *testing.T) {
	v1, v2 := saveVersions(t)
	p, err := NewFromCheckpoint(v1, 1, 16, Options{Replicas: 2, Factory: poolFactory()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	h := p.Handler()
	health := obs.Handler(nil, nil, p.Ready, nil)
	ctx := poolContext(0)
	score := func() *httptest.ResponseRecorder {
		return postJSON(t, h, "/score", ScoreRequest{Dense: ctx.Dense, Sparse: ctx.Sparse, Candidates: poolCandidates(0)})
	}

	if rec := getPath(t, health, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("/healthz status %d want 200", rec.Code)
	}
	if rec := getPath(t, health, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("/readyz status %d want 200", rec.Code)
	}
	if rec := score(); rec.Code != http.StatusOK {
		t.Fatalf("pre-reload score status %d", rec.Code)
	}

	rec := postJSON(t, h, "/reload", ReloadRequest{Path: v2})
	if rec.Code != http.StatusOK {
		t.Fatalf("/reload status %d: %s", rec.Code, rec.Body.String())
	}
	var rr reloadResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Version != 2 {
		t.Fatalf("/reload version %d want 2", rr.Version)
	}
	if rec := score(); rec.Code != http.StatusOK {
		t.Fatalf("post-reload score status %d", rec.Code)
	}

	// Empty body reloads the construction checkpoint (v1) → version 3.
	req := httptest.NewRequest(http.MethodPost, "/reload", nil)
	raw := httptest.NewRecorder()
	h.ServeHTTP(raw, req)
	if raw.Code != http.StatusOK {
		t.Fatalf("empty-body /reload status %d: %s", raw.Code, raw.Body.String())
	}
	if p.Version() != 3 {
		t.Fatalf("version after default reload %d want 3", p.Version())
	}

	// Missing checkpoint → 404; version and serving untouched.
	rec = postJSON(t, h, "/reload", ReloadRequest{Path: v2 + ".missing"})
	if rec.Code != http.StatusNotFound {
		t.Fatalf("missing-checkpoint /reload status %d want 404", rec.Code)
	}
	if p.Version() != 3 {
		t.Fatalf("failed reload bumped version to %d", p.Version())
	}
	if rec := score(); rec.Code != http.StatusOK {
		t.Fatalf("score after failed reload status %d", rec.Code)
	}

	// GET /reload → 405.
	if rec := getPath(t, h, "/reload"); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /reload status %d want 405", rec.Code)
	}

	// Factoryless pool → 400 (no reload surface).
	m := poolModel(t)
	plain, err := New(m, 1, 16, Options{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	rec = postJSON(t, plain.Handler(), "/reload", ReloadRequest{Path: v1})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("factoryless /reload status %d want 400", rec.Code)
	}
}

// TestHTTPReadyzFlipsMidSwap pins the drain/readiness state machine under a
// live handoff: while a swap is blocked on a worker that is mid-micro-batch
// (parked in Hydrate), /readyz must answer 503 without blocking; once the
// batch finishes and the swap completes, readiness recovers.
func TestHTTPReadyzFlipsMidSwap(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	m := poolModel(t)
	p, err := New(m, 1, 16, Options{
		Replicas: 1,
		Hydrate: func(batch []HydrateRequest) error {
			entered <- struct{}{}
			<-release
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	h := p.Handler()
	health := obs.Handler(nil, nil, p.Ready, nil)
	ctx := poolContext(0)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		// Parks the only worker inside the micro-batch.
		postJSON(t, h, "/score", ScoreRequest{Dense: ctx.Dense, Sparse: ctx.Sparse, Candidates: poolCandidates(0)})
	}()
	<-entered
	swapped := make(chan struct{})
	go func() {
		defer wg.Done()
		defer close(swapped)
		if _, err := p.Swap(m); err != nil {
			t.Errorf("swap: %v", err)
		}
	}()

	// The swap cannot hand off until the worker leaves Hydrate, so poll
	// until readiness drops (it flips as soon as Swap enters distribution).
	for getPath(t, health, "/readyz").Code != http.StatusServiceUnavailable {
		select {
		case <-swapped:
			t.Fatal("swap completed while its worker was parked in Hydrate")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	if rec := getPath(t, health, "/healthz"); rec.Code != http.StatusOK {
		t.Fatal("/healthz must stay 200 mid-swap")
	}

	close(release)
	wg.Wait()
	if rec := getPath(t, health, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("/readyz after swap status %d want 200", rec.Code)
	}
	if p.Version() != 2 {
		t.Fatalf("version %d want 2", p.Version())
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	m := poolModel(t)
	p, err := New(m, 1, 16, Options{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := p.Handler()

	// Invalid context → 400.
	rec := postJSON(t, h, "/score", ScoreRequest{Dense: []float32{1}, Sparse: []int{0, 0}, Candidates: []int{1}})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad context status %d want 400", rec.Code)
	}
	// Invalid candidate → 400.
	ctx := poolContext(0)
	rec = postJSON(t, h, "/topk", ScoreRequest{Dense: ctx.Dense, Sparse: ctx.Sparse, Candidates: []int{5000}, K: 2})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad candidate status %d want 400", rec.Code)
	}
	// Broken JSON → 400.
	req := httptest.NewRequest(http.MethodPost, "/score", bytes.NewReader([]byte("{not json")))
	raw := httptest.NewRecorder()
	h.ServeHTTP(raw, req)
	if raw.Code != http.StatusBadRequest {
		t.Fatalf("broken JSON status %d want 400", raw.Code)
	}
	// GET → 405.
	get := httptest.NewRecorder()
	h.ServeHTTP(get, httptest.NewRequest(http.MethodGet, "/score", nil))
	if get.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d want 405", get.Code)
	}
	// Shut-down pool → 503.
	p.Close()
	rec = postJSON(t, h, "/score", ScoreRequest{Dense: ctx.Dense, Sparse: ctx.Sparse, Candidates: []int{1}})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-close status %d want 503", rec.Code)
	}
}

// TestHTTPNonFiniteScore pins the non-finite fix: JSON cannot carry a NaN
// score, and the handlers used to send the 200 status before finding that
// out, answering with an empty body. Now both routes answer 500 with an
// error body naming the score.
func TestHTTPNonFiniteScore(t *testing.T) {
	m := poolModel(t)
	top := m.Top.Params()
	top[len(top)-1].Value.Data[0] = float32(math.NaN()) // the output layer's bias: every score is NaN
	p, err := New(m, 1, 16, Options{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	h := p.Handler()
	ctx := poolContext(0)
	for _, path := range []string{"/score", "/topk"} {
		rec := postJSON(t, h, path, ScoreRequest{Dense: ctx.Dense, Sparse: ctx.Sparse, Candidates: poolCandidates(0), K: 3})
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("%s with NaN scores: status %d want 500: %q", path, rec.Code, rec.Body.String())
		}
		var e errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatalf("%s: error body %q does not decode: %v", path, rec.Body.String(), err)
		}
		if !strings.Contains(e.Error, "NaN") {
			t.Fatalf("%s: error %q does not name the NaN score", path, e.Error)
		}
	}
}

// TestHTTPBodyLimits: every POST body is one JSON value of at most
// maxBodyBytes. An oversized body answers 413 without reaching a replica (the
// scratch a request grows never shrinks), and anything but whitespace after
// the value answers 400 instead of being silently dropped.
func TestHTTPBodyLimits(t *testing.T) {
	m := poolModel(t)
	reg := obs.NewRegistry()
	p, err := New(m, 1, 16, Options{Replicas: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	h := p.Handler()
	post := func(path, body string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rec.Code
	}

	ctx := poolContext(0)
	valid, err := json.Marshal(ScoreRequest{Dense: ctx.Dense, Sparse: ctx.Sparse, Candidates: []int{1, 2}, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A syntactically valid body just over the cap: candidate ids to spare.
	huge := `{"candidates":[` + strings.Repeat("1,", maxBodyBytes/2) + `1]}`
	for _, path := range []string{"/score", "/topk", "/reload"} {
		if code := post(path, huge); code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s oversized body: status %d want 413", path, code)
		}
		if code := post(path, string(valid)+` {"k":2}`); code != http.StatusBadRequest {
			t.Errorf("%s second JSON value: status %d want 400", path, code)
		}
		if code := post(path, string(valid)+"]"); code != http.StatusBadRequest {
			t.Errorf("%s trailing garbage: status %d want 400", path, code)
		}
	}
	if n := reg.Snapshot().Counter("serve_requests"); n != 0 {
		t.Fatalf("%d rejected bodies reached admission", n)
	}
	// Trailing whitespace is still one value.
	for _, path := range []string{"/score", "/topk"} {
		if code := post(path, string(valid)+" \n\t"); code != http.StatusOK {
			t.Errorf("%s trailing whitespace: status %d want 200", path, code)
		}
	}
}

// FuzzDecodeBody holds the /reload body decoder to its contract on any
// input: it never panics; it accepts a body exactly when the body is at
// most maxBodyBytes and is either blank (the default path) or one JSON value
// json.Unmarshal accepts into a ReloadRequest, with nothing but whitespace
// after it; what it accepts names the path json.Unmarshal decodes, and
// re-encoded decodes to that path again; a rejection answers 413 only for a
// body over the limit, 400 otherwise. near ≠ 0 pads the body with spaces to
// within two bytes of the limit, either side.
func FuzzDecodeBody(f *testing.F) {
	for _, body := range []string{
		``, ` `, `{}`, `null`, `{"path":"/tmp/x.ckpt"}`, `{"PATH":"a"}`,
		`{"path":"a"} x`, `{"path":"a"}{}`, `{"path":5}`, `[`, "{\"path\":\"a\"}\r\n",
	} {
		f.Add([]byte(body), int8(0))
		f.Add([]byte(body), int8(1))
		f.Add([]byte(body), int8(3))
	}
	f.Fuzz(func(t *testing.T, body []byte, near int8) {
		if near != 0 {
			if n := maxBodyBytes + int(near)%3; len(body) < n {
				body = append(body, bytes.Repeat([]byte{' '}, n-len(body))...)
			}
		}
		var want ReloadRequest
		blank := len(bytes.TrimLeft(body, " \t\r\n")) == 0
		wantOK := len(body) <= maxBodyBytes && (blank || json.Unmarshal(body, &want) == nil)

		rec := httptest.NewRecorder()
		var got ReloadRequest
		ok := decodeBody(rec, httptest.NewRequest(http.MethodPost, "/reload", bytes.NewReader(body)), &got)
		if ok != wantOK {
			t.Fatalf("%d-byte body: decodeBody = %v, json.Unmarshal says %v", len(body), ok, wantOK)
		}
		if !ok {
			if rec.Code == http.StatusRequestEntityTooLarge && len(body) <= maxBodyBytes {
				t.Fatalf("%d-byte body answered 413 under the %d-byte limit", len(body), maxBodyBytes)
			}
			if rec.Code != http.StatusRequestEntityTooLarge && rec.Code != http.StatusBadRequest {
				t.Fatalf("rejected body answered %d, want 400 or 413", rec.Code)
			}
			return
		}
		if got != want {
			t.Fatalf("decoded %+v, json.Unmarshal %+v", got, want)
		}
		buf, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		var again ReloadRequest
		if err := json.Unmarshal(buf, &again); err != nil || again != got {
			t.Fatalf("re-encoded %s decodes to %+v (%v), want %+v", buf, again, err, got)
		}
	})
}
