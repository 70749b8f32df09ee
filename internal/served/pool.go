// Package served is the production serving front end over a trained DLRM:
// a replica pool that fixes the concurrent-scoring data race structurally.
//
// After the buffer-reuse work, every nn layer, the dlrm.Model and the Eff-TT
// arena own mutable scratch, so two concurrent Ranker calls on one model are
// a data race. Instead of locking the hot path, the pool clones the model N
// ways (dlrm.Model.CloneForServing: deep-copied layer buffers and TT arenas
// over shared read-only TT cores) and gives each replica its own worker
// goroutine — within a replica requests run serially, across replicas they
// run in parallel, and no two goroutines ever share mutable scratch.
//
// In front of the replicas sits a bounded admission queue with typed
// shedding (ErrOverloaded when the queue is full, ErrDeadline when a request
// waited past its deadline, ErrShutdown after Close) and a request coalescer:
// a worker drains whatever is queued — up to MaxCoalesce requests — into one
// micro-batch and scores it in a single grouped forward pass
// (serve.Ranker.ScoreGroups, the path Ranker.Score itself takes): the
// context side of each request is computed once, its candidates share it
// (cf. DeepRecSys' ranking-stage batching, RecD's dedup past the embedding
// layer). Because every scoring kernel accumulates per output element in
// fixed k-order, a sample's score does not depend on its micro-batch
// neighbours: pooled results are bit-identical to the serial path, which the
// -race tests assert.
//
// The pool also supports hot model reload (see swap.go): Swap hands every
// worker a freshly cloned replica of a new model version between
// micro-batches — in-flight batches finish on the old clones, no request is
// ever dropped — and SwapFromCheckpoint rebuilds that new version from the
// checkpoint codec, so a continuously retraining trainer and a serving pool
// never share mutable memory.
package served

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dlrm"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Typed shedding errors. Match with errors.Is; every error the pool returns
// for an admission failure wraps one of these.
var (
	// ErrOverloaded marks a request rejected because the admission queue was
	// full — the caller should back off or route to another node.
	ErrOverloaded = errors.New("served: overloaded")
	// ErrDeadline marks a request shed because it waited in the queue past
	// its deadline — scoring it would only return a result nobody wants.
	ErrDeadline = errors.New("served: deadline exceeded")
	// ErrShutdown marks a request rejected because the pool is draining.
	ErrShutdown = errors.New("served: pool shut down")
)

// Options configures a Pool. The zero value serves: one replica, a
// 64-request queue, micro-batches of up to 8 requests, no deadline.
type Options struct {
	// Replicas is the number of model clones, each with its own worker
	// goroutine; requests run in parallel across replicas.
	Replicas int
	// QueueDepth bounds the admission queue; a full queue sheds with
	// ErrOverloaded instead of building unbounded latency.
	QueueDepth int
	// MaxCoalesce caps how many waiting requests one worker merges into a
	// single micro-batch forward pass.
	MaxCoalesce int
	// Timeout is the default per-request deadline measured from admission
	// (0: none). Requests still queued past it are shed with ErrDeadline.
	Timeout time.Duration
	// Hydrate, when non-nil, runs once per coalesced micro-batch on the
	// replica worker after validation and before scoring — the blocking
	// feature-fetch stage of a DeepRecSys-style rank server, resolving
	// candidate features from a remote store in one batched call. Each
	// replica blocks independently, so hydration stalls overlap across
	// replicas while other replicas score. A non-nil error fails every
	// request in the micro-batch. The callback must not retain the slice.
	Hydrate func(batch []HydrateRequest) error
	// Clock is the time base for deadlines and latency instruments
	// (nil: system clock). Tests inject a manual clock.
	Clock obs.Clock
	// Metrics, when non-nil, registers the serve_* pool instruments.
	// Instrumentation is fixed at construction so workers never race an
	// attach.
	Metrics *obs.Registry
	// Factory builds a fresh model skeleton with the serving architecture
	// (same parameter shapes, table kinds and table shapes as the
	// checkpoints the pool will load). NewFromCheckpoint and
	// SwapFromCheckpoint call it once per load, so the pool materializes
	// every model version from checkpoint bytes into memory it owns —
	// never aliasing the live trainer's parameters. Nil disables the
	// checkpoint-reload surface; Swap with a caller-built model still
	// works.
	Factory ModelFactory
}

func (o Options) withDefaults() Options {
	if o.Replicas <= 0 {
		o.Replicas = 1
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.MaxCoalesce <= 0 {
		o.MaxCoalesce = 8
	}
	o.Clock = obs.OrSystem(o.Clock)
	return o
}

// Pool serves Score/TopK traffic over N isolated replicas of one model and
// hot-swaps in new model versions without dropping requests.
type Pool struct {
	opts        Options
	clock       obs.Clock
	itemFeature int // Ranker item feature, fixed across swaps
	batchSize   int // Ranker scoring chunk size, fixed across swaps
	workers     []*worker

	queue chan *request
	depth atomic.Int64 // admitted but not yet claimed by a worker

	mu     sync.RWMutex
	closed bool // guarded by mu

	// swapMu serializes Swap/SwapFromCheckpoint so two concurrent reloads
	// cannot interleave their replica distributions.
	swapMu sync.Mutex
	// swapping is true while a swap distributes replicas; Ready reports
	// false then (and checks it before touching mu, so readiness probes
	// never block behind a swap in progress).
	swapping atomic.Bool
	// version counts model versions served: 1 at construction, +1 per
	// completed swap. Mirrored into the model_version gauge.
	version atomic.Int64
	// reloadPath is the default SwapFromCheckpoint source, set by
	// NewFromCheckpoint before the pool is exposed; immutable afterwards.
	reloadPath string

	wg  sync.WaitGroup
	met poolMetrics
}

// worker is one serving goroutine. It owns exactly one replica at a time;
// ownership transfers only through the swap channel, at micro-batch
// boundaries, so replica scratch is never shared.
type worker struct {
	// rep is the worker's current replica. Written by newPool before the
	// goroutine starts and by the worker itself when it adopts a swap;
	// never touched by any other goroutine while the worker runs.
	rep *replica
	// swap delivers the next replica; unbuffered, so a send completes
	// exactly when the worker is between micro-batches.
	swap chan swapMsg
}

// swapMsg hands a worker its next replica; the worker confirms adoption on
// adopted (buffered to the worker count, so the ack never blocks).
type swapMsg struct {
	rep     *replica
	adopted chan<- struct{}
}

// replica is one isolated copy of the model plus its scoring scratch; it is
// only ever touched by the single worker goroutine that owns it.
type replica struct {
	ranker *serve.Ranker // over this replica's own model clone

	reqs   []*request        // coalesce scratch, reused across micro-batches
	groups []dlrm.ScoreGroup // one per live request, reused across micro-batches
	hyd    []HydrateRequest  // hydration scratch, reused across micro-batches
	scores []float32         // micro-batch score scratch, reused across micro-batches
}

// HydrateRequest is one live request handed to the Options.Hydrate stage.
type HydrateRequest struct {
	Ctx        *serve.Context
	Candidates []int
}

// poolMetrics instruments the pool. Zero value (no registry): every record
// path is a nil-safe no-op. The pool is the only owner of the serve_*
// names.
type poolMetrics struct {
	requests     *obs.Counter   // serve_requests: admission attempts
	errors       *obs.Counter   // serve_errors: error responses (incl. sheds)
	candidates   *obs.Counter   // serve_candidates: candidates of validated requests
	batchSize    *obs.Histogram // serve_batch_size: candidates per validated request
	shedOverload *obs.Counter   // serve_shed_overload
	shedDeadline *obs.Counter   // serve_shed_deadline
	queueDepth   *obs.Gauge     // serve_queue_depth
	modelVersion *obs.Gauge     // model_version: 1 at construction, +1 per swap
	coalesced    *obs.Histogram // serve_coalesced_batch_size: requests per micro-batch
	queueWaitNS  *obs.Histogram // serve_queue_wait_ns: admission → worker pickup
	hydrateNS    *obs.Histogram // serve_hydrate_ns: Hydrate stage per micro-batch
	execNS       *obs.Histogram // serve_exec_ns: micro-batch hydrate+forward+rank
	swapNS       *obs.Histogram // serve_swap_ns: Swap clone-build + distribution latency
}

func newPoolMetrics(reg *obs.Registry) poolMetrics {
	if reg == nil {
		return poolMetrics{}
	}
	return poolMetrics{
		requests:     reg.Counter("serve_requests"),
		errors:       reg.Counter("serve_errors"),
		candidates:   reg.Counter("serve_candidates"),
		batchSize:    reg.Histogram("serve_batch_size"),
		shedOverload: reg.Counter("serve_shed_overload"),
		shedDeadline: reg.Counter("serve_shed_deadline"),
		queueDepth:   reg.Gauge("serve_queue_depth"),
		modelVersion: reg.Gauge("model_version"),
		coalesced:    reg.Histogram("serve_coalesced_batch_size"),
		queueWaitNS:  reg.Histogram("serve_queue_wait_ns"),
		hydrateNS:    reg.Histogram("serve_hydrate_ns"),
		execNS:       reg.Histogram("serve_exec_ns"),
		swapNS:       reg.Histogram("serve_swap_ns"),
	}
}

// New builds a pool over model: Options.Replicas serving clones, each
// validated through its own serve.Ranker. itemFeature and batchSize have
// Ranker semantics (which sparse feature carries the candidate id, and the
// rows-per-forward-pass chunk size). The clones share model's embedding
// cores read-only, so model must not train while this pool still serves
// clones of it. To retrain continuously, do not train the served model
// in place: checkpoint the trainer and reload through NewFromCheckpoint /
// SwapFromCheckpoint, which rebuild serving state from checkpoint bytes
// instead of aliasing live trainer memory (Swap with a freshly built model
// works too — the handed-over model must simply never train afterwards).
func New(model *dlrm.Model, itemFeature, batchSize int, opts Options) (*Pool, error) {
	p, err := newPool(model, itemFeature, batchSize, opts)
	if err != nil {
		return nil, err
	}
	for _, w := range p.workers {
		w := w
		p.spawn(func() { p.run(w) })
	}
	return p, nil
}

// newPool builds the pool without starting workers (tests hand queued
// requests to serveAdmitted synchronously against a stopped pool).
func newPool(model *dlrm.Model, itemFeature, batchSize int, opts Options) (*Pool, error) {
	opts = opts.withDefaults()
	p := &Pool{
		opts:        opts,
		clock:       opts.Clock,
		itemFeature: itemFeature,
		batchSize:   batchSize,
		queue:       make(chan *request, opts.QueueDepth),
		met:         newPoolMetrics(opts.Metrics),
	}
	for i := 0; i < opts.Replicas; i++ {
		r, err := p.buildReplica(model)
		if err != nil {
			return nil, fmt.Errorf("served: replica %d: %w", i, err)
		}
		p.workers = append(p.workers, &worker{rep: r, swap: make(chan swapMsg)})
	}
	p.version.Store(1)
	p.met.modelVersion.Set(1)
	return p, nil
}

// buildReplica clones model into one isolated serving replica with its own
// validated Ranker and pooled scratch.
func (p *Pool) buildReplica(model *dlrm.Model) (*replica, error) {
	clone, err := model.CloneForServing()
	if err != nil {
		return nil, err
	}
	ranker, err := serve.NewRanker(clone, p.itemFeature, p.batchSize)
	if err != nil {
		return nil, err
	}
	return &replica{ranker: ranker}, nil
}

// Replicas returns the number of serving replicas.
func (p *Pool) Replicas() int { return len(p.workers) }

// Version returns the model version currently served: 1 for the model the
// pool was built over, incremented by every completed Swap.
func (p *Pool) Version() int64 { return p.version.Load() }

// Ready reports whether the pool is serving at a stable model version:
// false while a swap is mid-flight and after Close. Load balancers poll
// this through the /readyz route. The swapping check comes first so a
// readiness probe answers immediately even while Swap holds the pool lock.
func (p *Pool) Ready() bool {
	if p.swapping.Load() {
		return false
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	return !p.closed
}

// spawn starts fn on a pool goroutine tracked by the drain barrier. Every
// pool goroutine is born here (the gospawn analyzer enforces it), so worker
// lifetime is always tied to Close.
func (p *Pool) spawn(fn func()) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		fn()
	}()
}

// request is one queued Score/TopK call.
type request struct {
	ctx        serve.Context
	candidates []int
	k          int           // 0: Score, >0: TopK
	timeout    time.Duration // 0: no deadline
	admitted   time.Time     // pool-clock timestamp at admission
	done       chan response // cap 1: respond never blocks the worker
	responded  bool          // owned by the worker processing the request
}

type response struct {
	scores []float32
	top    []serve.Scored
	err    error
}

// respond delivers at most one response; later calls (the panic backstop
// re-failing an already-answered batch) are no-ops.
func (req *request) respond(r response) {
	if req.responded {
		return
	}
	req.responded = true
	req.done <- r
}

// Score scores candidates for ctx through the pool, using the pool's
// default deadline. Results are bit-identical to serve.Ranker.Score on the
// source model.
func (p *Pool) Score(ctx serve.Context, candidates []int) ([]float32, error) {
	return p.ScoreDeadline(ctx, candidates, p.opts.Timeout)
}

// ScoreDeadline is Score with a per-request deadline override (0: none).
func (p *Pool) ScoreDeadline(ctx serve.Context, candidates []int, timeout time.Duration) ([]float32, error) {
	resp := p.do(&request{ctx: ctx, candidates: candidates, timeout: timeout})
	return resp.scores, resp.err
}

// TopK returns the k highest-scoring candidates through the pool, with
// serve.Ranker.TopK ordering (NaN last, ties by lower item id).
func (p *Pool) TopK(ctx serve.Context, candidates []int, k int) ([]serve.Scored, error) {
	return p.TopKDeadline(ctx, candidates, k, p.opts.Timeout)
}

// TopKDeadline is TopK with a per-request deadline override (0: none).
func (p *Pool) TopKDeadline(ctx serve.Context, candidates []int, k int, timeout time.Duration) ([]serve.Scored, error) {
	if k <= 0 {
		p.met.requests.Inc()
		p.met.errors.Inc()
		return nil, fmt.Errorf("%w: non-positive k %d", serve.ErrInvalidConfig, k)
	}
	resp := p.do(&request{ctx: ctx, candidates: candidates, k: k, timeout: timeout})
	return resp.top, resp.err
}

// do admits the request and blocks until its worker responds (or admission
// sheds it).
func (p *Pool) do(req *request) response {
	if err := p.admit(req); err != nil {
		p.met.errors.Inc()
		return response{err: err}
	}
	resp := <-req.done
	if resp.err != nil {
		p.met.errors.Inc()
	}
	return resp
}

// admit enqueues the request, shedding with ErrShutdown after Close and
// ErrOverloaded when the bounded queue is full. The closed flag and the
// channel close happen under mu, so admit can never send on a closed queue.
func (p *Pool) admit(req *request) error {
	p.met.requests.Inc()
	req.admitted = p.clock.Now()
	req.done = make(chan response, 1)
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return ErrShutdown
	}
	select {
	case p.queue <- req:
		p.met.queueDepth.Set(float64(p.depth.Add(1)))
		return nil
	default:
		p.met.shedOverload.Inc()
		return fmt.Errorf("%w: queue of %d full", ErrOverloaded, cap(p.queue))
	}
}

// run is a worker loop: serve micro-batches until the queue closes and
// drains, adopting a new replica whenever a swap delivers one. The select
// makes the swap boundary exact: a handoff can only land between
// micro-batches, so an in-flight batch always finishes on the clone it
// started on.
func (p *Pool) run(w *worker) {
	for {
		select {
		case msg := <-w.swap:
			w.rep = msg.rep
			msg.adopted <- struct{}{}
		case req, ok := <-p.queue:
			if !ok {
				return
			}
			p.serveAdmitted(w.rep, req)
		}
	}
}

// serveAdmitted coalesces whatever else is waiting behind req (up to
// MaxCoalesce) into a micro-batch on r and processes it.
func (p *Pool) serveAdmitted(r *replica, req *request) {
	r.reqs = r.reqs[:0]
	r.reqs = append(r.reqs, req)
coalesce:
	for len(r.reqs) < p.opts.MaxCoalesce {
		select {
		case more, ok := <-p.queue:
			if !ok {
				break coalesce // closed mid-drain: serve what we have
			}
			r.reqs = append(r.reqs, more)
		default:
			break coalesce
		}
	}
	p.met.queueDepth.Set(float64(p.depth.Add(int64(-len(r.reqs)))))
	p.process(r, r.reqs)
}

// process scores one coalesced micro-batch on r: shed expired requests,
// reject invalid ones, score the rest as one group each in a single grouped
// forward pass, and split the scores back per request. Every request in
// reqs receives exactly one response.
//
// serve_candidates and serve_batch_size follow serve.Ranker's rule: they
// record only after validation passes, so candidates ÷ coalesced contexts is
// the reuse factor the grouped forward exploits.
func (p *Pool) process(r *replica, reqs []*request) {
	defer func() {
		// Backstop: a scoring panic must fail the batch, not kill the
		// worker with callers blocked on their done channels.
		if v := recover(); v != nil {
			err := fmt.Errorf("served: replica fault: %v", v)
			for _, req := range reqs {
				req.respond(response{err: err})
			}
		}
	}()
	start := p.clock.Now()
	live := reqs[:0]
	for _, req := range reqs {
		wait := start.Sub(req.admitted)
		p.met.queueWaitNS.Observe(float64(wait))
		if req.timeout > 0 && wait > req.timeout {
			p.met.shedDeadline.Inc()
			req.respond(response{err: fmt.Errorf("%w: queued %v, deadline %v", ErrDeadline, wait, req.timeout)})
			continue
		}
		if err := r.ranker.Validate(req.ctx); err != nil {
			req.respond(response{err: err})
			continue
		}
		if err := r.ranker.ValidateCandidates(req.candidates); err != nil {
			req.respond(response{err: err})
			continue
		}
		p.met.candidates.Add(int64(len(req.candidates)))
		p.met.batchSize.Observe(float64(len(req.candidates)))
		live = append(live, req)
	}
	if len(live) == 0 {
		return
	}
	defer func() { p.met.execNS.Observe(float64(obs.Since(p.clock, start))) }()
	p.met.coalesced.Observe(float64(len(live)))
	if p.opts.Hydrate != nil {
		r.hyd = r.hyd[:0]
		for _, req := range live {
			r.hyd = append(r.hyd, HydrateRequest{Ctx: &req.ctx, Candidates: req.candidates})
		}
		hs := p.clock.Now()
		err := p.opts.Hydrate(r.hyd)
		p.met.hydrateNS.Observe(float64(obs.Since(p.clock, hs)))
		if err != nil {
			err = fmt.Errorf("served: hydrate: %w", err)
			for _, req := range live {
				req.respond(response{err: err})
			}
			return
		}
	}
	r.groups = r.groups[:0]
	for _, req := range live {
		r.groups = append(r.groups, dlrm.ScoreGroup{Dense: req.ctx.Dense, Sparse: req.ctx.Sparse, Items: req.candidates})
	}
	scores := r.score()
	off := 0
	for _, req := range live {
		n := len(req.candidates)
		own := append([]float32(nil), scores[off:off+n]...)
		off += n
		if req.k > 0 {
			req.respond(response{top: serve.SelectTopK(req.candidates, own, req.k)})
		} else {
			req.respond(response{scores: own})
		}
	}
}

// score runs r.groups through the replica Ranker's grouped forward into the
// pooled scores scratch and returns it resliced to the row count. Steady
// state allocates nothing (TestReplicaScoreZeroAllocSteadyState pins it): the
// scratch grows once to the high-water row count, then every micro-batch
// reuses it.
func (r *replica) score() []float32 {
	rows := 0
	for i := range r.groups {
		rows += len(r.groups[i].Items)
	}
	if cap(r.scores) < rows {
		r.scores = make([]float32, rows)
	}
	scores := r.scores[:rows]
	r.ranker.ScoreGroups(r.groups, scores)
	return scores
}

// Close stops admission (new requests shed with ErrShutdown) and drains:
// every already-queued request is still served — or deadline-shed — before
// the workers exit. Safe to call more than once; blocks until drained.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.queue)
	}
	p.mu.Unlock()
	p.wg.Wait()
}
