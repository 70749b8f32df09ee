package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	elrec "repro"
	"repro/internal/data"
	"repro/internal/dlrm"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/served"
	"repro/internal/tt"
)

// scoreBatch is elrec-serve's -score-batch default: rows per forward pass.
const scoreBatch = 64

// serveProfile is the model the elrec-serve child trains at start-up and the
// sizes of the request passes.
type serveProfile struct {
	scale float64
	dim   int
	rank  int
	steps int
	batch int

	requests int // distinct pre-encoded requests the stream cycles through
	warmup   int // requests sent before anything is timed
	verified int // of those, the first this many are bit-checked against the in-process Ranker
	traced   int // most requests the traced pass replays (a twentieth of it at least)
}

func serveProfileFor(o options, candidates int) serveProfile {
	if o.quick {
		return serveProfile{scale: 0.001, dim: 32, rank: 16, steps: 2, batch: 256, requests: 64, warmup: 64, verified: 64, traced: 40}
	}
	// A pool several times larger than a segment, so the TT prefix cache
	// sees recurring hot rows (Zipf) rather than recurring requests.
	p := serveProfile{scale: 0.01, dim: 32, rank: 16, steps: 8, batch: 2048, requests: 8192, warmup: 300, verified: 256, traced: 1000}
	if candidates > scoreBatch {
		p.requests = 2048
	}
	return p
}

// buildServeBinary compiles cmd/elrec-serve into dir.
func buildServeBinary(ctx context.Context, dir string) (string, error) {
	bin := filepath.Join(dir, "elrec-serve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "repro/cmd/elrec-serve")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build repro/cmd/elrec-serve: %w\n%s", err, out)
	}
	return bin, nil
}

// serverLog collects the child's stderr (its structured key=value log).
type serverLog struct {
	mu  sync.Mutex
	buf bytes.Buffer // guarded by mu
}

func (l *serverLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *serverLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// field returns the value of key= on the first log line holding marker.
func (l *serverLog) field(marker, key string) string {
	for _, line := range strings.Split(l.String(), "\n") {
		if !strings.Contains(line, marker) {
			continue
		}
		for _, kv := range strings.Fields(line) {
			if v, ok := strings.CutPrefix(kv, key+"="); ok {
				return v
			}
		}
	}
	return ""
}

// server is one running elrec-serve child.
type server struct {
	cmd   *exec.Cmd
	log   *serverLog
	gone  chan struct{} // closed once the process is reaped
	url   string
	setup time.Duration // process start → first /readyz 200
}

// startServer launches the real elrec-serve binary on an ephemeral loopback
// port with every flag but the model's left at the binary's defaults, and
// waits until /readyz answers 200.
func startServer(ctx context.Context, bin string, p serveProfile, ckpt string) (*server, error) {
	clock := obs.System()
	s := &server{log: &serverLog{}, gone: make(chan struct{})}
	s.cmd = exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-dataset", "terabyte", "-dataset-scale", fmt.Sprint(p.scale),
		"-dim", fmt.Sprint(p.dim), "-rank", fmt.Sprint(p.rank),
		"-steps", fmt.Sprint(p.steps), "-batch", fmt.Sprint(p.batch),
		"-replicas", "2", "-save", ckpt)
	s.cmd.Stderr = s.log
	t0 := clock.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		_ = s.cmd.Wait() // the exit status is in the log the errors below quote
		close(s.gone)
	}()

	deadline := t0.Add(2 * time.Minute)
	client := &http.Client{Timeout: time.Second}
	for {
		if s.url == "" {
			if addr := s.log.field("msg=serving ", "addr"); addr != "" {
				s.url = "http://" + addr
			}
		}
		if s.url != "" {
			if resp, err := client.Get(s.url + "/readyz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					s.setup = obs.Since(clock, t0)
					return s, nil
				}
			}
		}
		var err error
		select {
		case <-s.gone:
			err = errors.New("elrec-serve exited before it was ready")
		case <-ctx.Done():
			err = ctx.Err()
		default:
			if clock.Now().After(deadline) {
				err = errors.New("elrec-serve not ready after 2 minutes")
			}
		}
		if err != nil {
			s.stop()
			return nil, fmt.Errorf("%w\n%s", err, s.log)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop interrupts the child as an operator would and reaps it; a child that
// does not drain within ten seconds is killed. It always returns with the
// process gone, and calling it again is harmless.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(os.Interrupt) // fails only when it already exited
	select {
	case <-s.gone:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.gone
	}
}

// request is one pre-encoded /score request and what the in-process replay
// needs to re-issue it.
type request struct {
	ctx        serve.Context
	candidates []int
	body       []byte
}

// genRequests makes the request stream from the seed alone: dense features
// ~ N(0,1), user-side and candidate ids drawn per table by the repo's own
// generator (Zipf skew plus batch locality), so hot rows recur across
// requests as they do across training batches. Bodies are encoded here,
// before anything is timed.
func genRequests(seed uint64, spec data.Spec, item, n, candidates int) ([]request, error) {
	spec.Seed = seed
	d, err := data.New(spec)
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(int64(seed))) //nolint:gosec // deterministic synthetic inputs
	const block = 256                          // consecutive requests share one generator batch's locality
	reqs := make([]request, n)
	cols := make([][]int, spec.NumTables())
	for i := range reqs {
		if i%block == 0 {
			for t := range cols {
				cols[t] = d.BatchIndices(i/block, block, t)
			}
		}
		dense := make([]float32, spec.NumDense)
		for j := range dense {
			dense[j] = float32(r.NormFloat64())
		}
		sparse := make([]int, len(cols))
		for t := range cols {
			sparse[t] = cols[t][i%block]
		}
		q := &reqs[i]
		q.ctx = serve.Context{Dense: dense, Sparse: sparse}
		q.candidates = d.BatchIndices(1<<20+i, candidates, item)
		q.body, err = json.Marshal(served.ScoreRequest{Dense: dense, Sparse: sparse, Candidates: q.candidates})
		if err != nil {
			return nil, err
		}
	}
	return reqs, nil
}

// itemFeature mirrors the binary's -item-feature default: the largest table.
func itemFeature(spec data.Spec) int {
	best := 0
	for i, rows := range spec.TableRows {
		if rows > spec.TableRows[best] {
			best = i
		}
	}
	return best
}

// loadServedModel rebuilds the architecture the binary serves at profile p
// (cmd/elrec-serve's buildModel at its flag defaults) and fills it from the
// checkpoint the binary saved.
func loadServedModel(spec data.Spec, p serveProfile, ckpt string) (*dlrm.Model, error) {
	tables, _, err := dlrm.BuildTables(spec.TableRows, dlrm.TableSpec{
		Dim: p.dim, Rank: p.rank, TTThreshold: 10_000, Opts: tt.EffOptions(), Seed: spec.Seed,
	})
	if err != nil {
		return nil, err
	}
	cfg := dlrm.DefaultConfig(spec.NumDense, p.dim)
	cfg.LR = 1.0
	cfg.Seed = spec.Seed + 1
	m, err := dlrm.NewModel(cfg, tables)
	if err != nil {
		return nil, err
	}
	return m, elrec.LoadModel(ckpt, m)
}

// loadGen drives closed-loop /score traffic: each connection sends its next
// request only after the previous reply, as the upstream workers of a
// ranking stage do. Every response is checked; a non-200, malformed or
// out-of-range one is a failed operation.
type loadGen struct {
	res   *runResult
	url   string
	reqs  []request
	next  atomic.Int64 // index of the next request of the stream
	conns []*http.Client

	mu        sync.Mutex
	first     [][]float32 // guarded by mu; scores of the stream's first requests, for the bit check
	respBytes int64       // guarded by mu
	responses int64       // guarded by mu
}

func newLoadGen(res *runResult, url string, reqs []request, conns, verified int) *loadGen {
	g := &loadGen{res: res, url: url, reqs: reqs, first: make([][]float32, verified)}
	for i := 0; i < conns; i++ {
		// One transport per client pins one TCP connection per client.
		g.conns = append(g.conns, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}})
	}
	return g
}

func (g *loadGen) close() {
	for _, c := range g.conns {
		c.CloseIdleConnections()
	}
}

// post sends one request and returns the client-observed latency (send to
// last body byte) and the decoded scores; err is set for a failed operation.
func (g *loadGen) post(ctx context.Context, client *http.Client, q *request, body *bytes.Buffer) (time.Duration, []float32, error) {
	clock := obs.System()
	t0 := clock.Now()
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, g.url+"/score", bytes.NewReader(q.body))
	if err != nil {
		return 0, nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	body.Reset()
	_, err = body.ReadFrom(resp.Body)
	resp.Body.Close()
	lat := obs.Since(clock, t0)
	if err != nil {
		return 0, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body.Bytes()))
	}
	var out served.ScoreResponse
	if err := json.Unmarshal(body.Bytes(), &out); err != nil {
		return 0, nil, fmt.Errorf("malformed response: %w", err)
	}
	if len(out.Scores) != len(q.candidates) {
		return 0, nil, fmt.Errorf("%d scores for %d candidates", len(out.Scores), len(q.candidates))
	}
	for _, s := range out.Scores {
		if !(s > 0 && s < 1) {
			return 0, nil, fmt.Errorf("score %v outside (0,1)", s)
		}
	}
	return lat, out.Scores, nil
}

// drive runs the stream on the first conns connections until stop reports
// true (checked between requests) and returns the latencies in µs of the
// successful requests and the wall time.
func (g *loadGen) drive(ctx context.Context, conns int, stop func(sent int) bool) ([]float64, time.Duration) {
	clock := obs.System()
	perConn := make([][]float64, conns)
	var sent atomic.Int64
	var wg sync.WaitGroup
	t0 := clock.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var body bytes.Buffer
			for ctx.Err() == nil && !stop(int(sent.Add(1))-1) {
				i := int(g.next.Add(1) - 1)
				q := &g.reqs[i%len(g.reqs)]
				lat, scores, err := g.post(ctx, g.conns[c], q, &body)
				g.mu.Lock()
				g.res.Attempted++
				if err != nil {
					g.res.fail("request %d: %v", i, err)
				} else {
					g.responses++
					g.respBytes += int64(body.Len())
					if i < len(g.first) {
						g.first[i] = scores
					}
				}
				g.mu.Unlock()
				if err == nil {
					perConn[c] = append(perConn[c], us(lat))
				}
			}
		}(c)
	}
	wg.Wait()
	wall := obs.Since(clock, t0)
	var lats []float64
	for _, l := range perConn {
		lats = append(lats, l...)
	}
	return lats, wall
}

// driveFor runs the stream for d.
func (g *loadGen) driveFor(ctx context.Context, conns int, d time.Duration) ([]float64, time.Duration) {
	clock := obs.System()
	end := clock.Now().Add(d)
	return g.drive(ctx, conns, func(int) bool { return !clock.Now().Before(end) })
}

// driveCount runs exactly n requests of the stream on one connection.
func (g *loadGen) driveCount(ctx context.Context, n int) ([]float64, time.Duration) {
	return g.drive(ctx, 1, func(sent int) bool { return sent >= n })
}

// meanResponseBytes is the mean body size of the successful responses.
func (g *loadGen) meanResponseBytes() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return ratio(float64(g.respBytes), float64(g.responses))
}

// verifyFirst bit-compares the responses to the stream's first requests
// with serve.Ranker.Score on the checkpoint the server saved.
func (g *loadGen) verifyFirst(ranker *serve.Ranker) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i, got := range g.first {
		g.res.Attempted++
		want, err := ranker.Score(g.reqs[i].ctx, g.reqs[i].candidates)
		switch {
		case err != nil:
			g.res.fail("request %d: in-process Ranker: %v", i, err)
		case got == nil:
			g.res.fail("request %d: no response recorded to verify", i)
		case !sameBits(got, want):
			g.res.fail("request %d: served %v, Ranker %v", i, got, want)
		}
	}
}

// serveRun is the state the timed and the traced serving runs share: a
// ready server, the request stream, and the model loaded in process.
type serveRun struct {
	profile serveProfile
	res     *runResult
	dir     string
	ckpt    string
	srv     *server
	setups  []refWindow   // one per server start, when a refClock was given
	reqTime time.Duration // wall time per warm-up request
	spec    data.Spec
	item    int
	reqs    []request
	model   *dlrm.Model
	ranker  *serve.Ranker
	gen     *loadGen
}

// startServeRun sets the server up repeats times (the last one stays up),
// generates the stream, loads the saved checkpoint in process and sends the
// warm-up requests. With a refClock each start is recorded as a window, a
// burst of reference pieces on either side of it. The caller must call close.
func startServeRun(ctx context.Context, o options, name string, candidates, repeats int, ref *refClock) (*serveRun, error) {
	p := serveProfileFor(o, candidates)
	r := &serveRun{profile: p, res: newResult(name, o.traced), spec: data.TerabyteSpec(p.scale)}
	r.item = itemFeature(r.spec)
	var err error
	if r.dir, err = os.MkdirTemp(o.outDir, "serve-"); err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			r.close()
		}
	}()
	bin := o.serveBin
	if bin == "" {
		if bin, err = buildServeBinary(ctx, r.dir); err != nil {
			return nil, err
		}
	}
	r.ckpt = filepath.Join(r.dir, "model.ckpt")
	for i := 0; i < repeats; i++ {
		if r.srv != nil {
			r.srv.stop()
			r.srv = nil
		}
		var from time.Duration
		if ref != nil {
			from = ref.now()
			ref.burst(setupBurst)
		}
		if r.srv, err = startServer(ctx, bin, p, r.ckpt); err != nil {
			return nil, err
		}
		if ref != nil {
			ref.burst(setupBurst)
			r.setups = append(r.setups, refWindow{from: from, to: ref.now(), raw: r.srv.setup.Seconds()})
		}
	}
	if r.reqs, err = genRequests(o.seed, r.spec, r.item, p.requests, candidates); err != nil {
		return nil, err
	}
	if r.model, err = loadServedModel(r.spec, p, r.ckpt); err != nil {
		return nil, err
	}
	if r.ranker, err = serve.NewRanker(r.model, r.item, scoreBatch); err != nil {
		return nil, err
	}
	r.gen = newLoadGen(r.res, r.srv.url, r.reqs, 2, p.verified)
	warm, wall := r.gen.driveCount(ctx, p.warmup)
	if len(warm) == 0 {
		return nil, fmt.Errorf("no warm-up request succeeded: %v", r.res.Failures)
	}
	r.reqTime = wall / time.Duration(len(warm))
	ok = true
	return r, nil
}

// close stops the server, whatever state the run is in, and removes the
// scratch directory.
func (r *serveRun) close() {
	if r.gen != nil {
		r.gen.close()
	}
	if r.srv != nil {
		r.srv.stop()
	}
	os.RemoveAll(r.dir)
}

func runServe(ctx context.Context, o options, name string, candidates int) (*runResult, error) {
	if o.traced {
		return runServeTraced(ctx, o, name, candidates)
	}
	return runServeTimed(ctx, o, name, candidates)
}

// requestBurst is the reference pieces run before each window of requests,
// and requestWindow the time a window's requests are sized to take: a fifth
// of the timed phase goes to the reference.
const (
	requestBurst  = 20
	requestWindow = 100 * time.Millisecond
)

// runServeTimed is the untraced run: closed-loop traffic on one connection
// for -seconds, in windows of requests with a burst of reference pieces
// before each. A window's raw value is the median latency of its requests.
func runServeTimed(ctx context.Context, o options, name string, candidates int) (*runResult, error) {
	ref := startRef()
	defer ref.stop()
	r, err := startServeRun(ctx, o, name, candidates, setupRepeats, ref)
	if err != nil {
		return nil, err
	}
	defer r.close()
	res := r.res
	clock := obs.System()

	perWindow := min(max(int(requestWindow/r.reqTime), 8), 512)
	budget := time.Duration(o.seconds * float64(time.Second))
	var windows []refWindow
	requests := 0
	for t0 := clock.Now(); (len(windows) < 5 || obs.Since(clock, t0) < budget) && ctx.Err() == nil; {
		from := ref.now()
		ref.burst(requestBurst)
		lats, _ := r.gen.driveCount(ctx, perWindow)
		if len(lats) > 0 {
			windows = append(windows, refWindow{from: from, to: ref.now(), raw: median(lats)})
			requests += len(lats)
		}
	}
	ref.stop()
	rss, err := peakRSSMB(r.srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	r.srv.stop()
	r.gen.verifyFirst(r.ranker)

	latUS := ref.normalise(windows)
	setupS := ref.normalise(r.setups)
	if len(latUS) == 0 || len(setupS) == 0 {
		return nil, errors.New("no reference piece was recorded beside the timed work")
	}
	res.Segments["op_time_us"] = segmentMedians(latUS)
	res.Segments["op_time_raw_us"] = segmentMedians(rawOf(windows))
	res.Segments["setup_s"] = setupS
	res.Segments["setup_raw_s"] = rawOf(r.setups)
	res.Samples["windows"] = len(latUS)
	res.Samples["requests_per_window"] = perWindow
	res.Samples["requests"] = requests
	emit(res, endToEndMetrics, map[string]float64{
		"op_time_us":  median(latUS),  // client-observed latency of one request
		"setup_s":     median(setupS), // process start → first /readyz 200
		"peak_rss_mb": rss,            // VmHWM of elrec-serve
	})
	return res, nil
}
