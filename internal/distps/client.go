package distps

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/ps"
	"repro/internal/tensor"
)

// maxRowsPerRPC chunks large gathers and pushes so a single frame stays
// far below the payload cap (65536 rows × dim 64 × 4B ≈ 16 MB).
const maxRowsPerRPC = 1 << 16

// transportRetry fills the zero fields of a transport-level retry policy
// with the transport defaults: 4 retries, 5ms→250ms (the pipeline's
// gather/apply retries are a separate layer with ps.DefaultRetryPolicy).
func transportRetry(r ps.RetryPolicy) ps.RetryPolicy {
	if r.MaxRetries <= 0 {
		r.MaxRetries = 4
	}
	if r.BaseDelay <= 0 {
		r.BaseDelay = 5 * time.Millisecond
	}
	if r.MaxDelay <= 0 {
		r.MaxDelay = 250 * time.Millisecond
	}
	return r
}

// ClientConfig configures a shard-set client.
type ClientConfig struct {
	WorkerID uint64
	Shards   []string // shard addresses, indexed by shard id

	// Dim, Seed and Tables must match every shard's ShardConfig; Hello
	// validates them on each new connection.
	Dim    int
	Seed   uint64
	Tables []TableSpec

	// Timeout is the per-RPC socket deadline (default 5s).
	Timeout time.Duration

	// LeaseTTL is requested on acquire/renew (default: shard's default).
	LeaseTTL time.Duration

	// Retry bounds transport retries; zero fields take transportRetry's
	// defaults.
	Retry ps.RetryPolicy

	Metrics *obs.Registry // distps_* client instruments; nil = off
	Trace   *obs.Tracer   // per-attempt RPC spans, propagated to shards; nil = off
	Log     *slog.Logger  // nil = silent
}

// clientMetrics are the client-side instruments (nil instruments no-op).
type clientMetrics struct {
	retries    *obs.Counter
	reconnects *obs.Counter
	bytesIn    *obs.Counter             // distps_rpc_bytes_in (frames received, header+payload)
	bytesOut   *obs.Counter             // distps_rpc_bytes_out (frames sent)
	latency    [msgTypes]*obs.Histogram // request type -> RPC latency (ns)
	up         []*obs.Gauge             // per shard: 1 = the last RPC attempt got a reply
	offset     []*obs.Gauge             // per shard: clock offset from the last Stats (ns, shard - worker)
}

// shardConn is one lazily-dialed connection to one shard. A connection
// carries strictly serialized request/response exchanges; any transport
// error, id mismatch or unexpected frame poisons it, and the next exchange
// dials fresh (re-running the Hello spec check).
type shardConn struct {
	index int
	addr  string

	mu    sync.Mutex
	conn  net.Conn      // guarded by mu
	br    *bufio.Reader // guarded by mu
	reqID uint64        // guarded by mu
}

// Client talks to the full shard set: per-call deadlines, capped-backoff
// retries with idempotent request payloads, per-shard liveness read off
// every RPC attempt, and a ps.HostStore adapter per table that plugs the
// shards into the pipeline trainer.
type Client struct {
	cfg   ClientConfig
	retry ps.RetryPolicy
	ring  *hashRing
	clock obs.Clock
	trace *obs.Tracer
	log   *slog.Logger
	m     clientMetrics

	epoch atomic.Uint64 // current lease epoch (fencing token)
	seq   atomic.Uint64 // push seq within the current epoch

	conns []*shardConn
}

// newClient builds the client; connections are dialed on first use.
func newClient(cfg ClientConfig) (*Client, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("%w: no shard addresses", errBadRequest)
	}
	if cfg.Dim <= 0 || len(cfg.Tables) == 0 {
		return nil, fmt.Errorf("%w: client needs a positive dim and at least one table", errBadRequest)
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 5 * time.Second
	}
	c := &Client{
		cfg:   cfg,
		retry: transportRetry(cfg.Retry),
		ring:  newHashRing(len(cfg.Shards)),
		clock: obs.System(),
		trace: cfg.Trace,
		log:   orDiscard(cfg.Log),
	}
	r := cfg.Metrics
	c.m = clientMetrics{
		retries:    r.Counter("distps_rpc_retries"),
		reconnects: r.Counter("distps_reconnects"),
		bytesIn:    r.Counter("distps_rpc_bytes_in"),
		bytesOut:   r.Counter("distps_rpc_bytes_out"),
	}
	for t, row := range rpcs {
		if row.serve != nil {
			c.m.latency[t] = r.Histogram("distps_rpc_" + row.name + "_ns")
		}
	}
	for i, addr := range cfg.Shards {
		c.conns = append(c.conns, &shardConn{index: i, addr: addr})
		c.m.up = append(c.m.up, r.Gauge(fmt.Sprintf("distps_shard%d_up", i)))
		c.m.offset = append(c.m.offset, r.Gauge(fmt.Sprintf("distps_shard%d_clock_offset_ns", i)))
		c.trace.SetThreadName(rpcTID(i), fmt.Sprintf("rpc:shard%d", i))
	}
	return c, nil
}

// rpcTID is the trace lane for RPCs against one shard.
func rpcTID(shard int) int { return 10 + shard }

// Epoch returns the current lease epoch.
func (c *Client) Epoch() uint64 { return c.epoch.Load() }

// SetEpoch installs a lease epoch obtained elsewhere and resets the push
// seq space (seqs are monotone within an epoch).
func (c *Client) SetEpoch(e uint64) {
	c.epoch.Store(e)
	c.seq.Store(0)
}

// nextSeq allocates the next push sequence number.
func (c *Client) nextSeq() uint64 { return c.seq.Add(1) }

// --- transport -------------------------------------------------------------

// poisonLocked discards the connection so the next exchange dials fresh.
//
//elrec:locked mu callers (roundTrip and exchangeLocked's callers) hold sc.mu
func (sc *shardConn) poisonLocked() {
	if sc.conn != nil {
		sc.conn.Close()
		sc.conn = nil
		sc.br = nil
	}
}

// exchangeLocked performs one framed request/response on the live
// connection. Any failure poisons the connection.
//
//elrec:locked mu roundTrip holds sc.mu across dial + exchange
func (sc *shardConn) exchangeLocked(c *Client, typ uint8, payload []byte, tctx obs.TraceContext) (frame, error) {
	sc.reqID++
	id := sc.reqID
	// Socket deadlines are kernel wall time by nature; the client's clock
	// drives only latency measurement and lease logic.
	//elrec:wallclock socket I/O deadline is enforced by the kernel against wall time
	if err := sc.conn.SetDeadline(time.Now().Add(c.cfg.Timeout)); err != nil {
		sc.poisonLocked()
		return frame{}, err
	}
	if err := writeFrame(sc.conn, frame{Type: typ, ReqID: id, Trace: tctx.Trace, Span: tctx.Span, Payload: payload}); err != nil {
		sc.poisonLocked()
		return frame{}, err
	}
	c.m.bytesOut.Add(int64(headerSize + len(payload)))
	f, err := readFrame(sc.br, defaultMaxPayload)
	if err != nil {
		sc.poisonLocked()
		return frame{}, err
	}
	c.m.bytesIn.Add(int64(headerSize + len(f.Payload)))
	if f.ReqID != id {
		// The stream is desynchronised (a stale, duplicated or misrouted
		// response): nothing more on this connection can be trusted.
		sc.poisonLocked()
		return frame{}, fmt.Errorf("%w: response id %d for request %d", errBadFrame, f.ReqID, id)
	}
	return f, nil
}

// roundTrip runs one exchange, dialing (and re-validating the spec via
// Hello) if the connection is down.
func (sc *shardConn) roundTrip(c *Client, typ uint8, payload []byte, tctx obs.TraceContext) (frame, error) {
	// sc.mu exists precisely to serialize this connection's dial and
	// request/response exchange: holding it across the socket I/O is the
	// invariant, not a bug. The I/O is deadline-bounded (dial timeout,
	// SetDeadline in exchangeLocked), so the hold time is capped.
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.conn == nil {
		//elrec:lockorder per-connection mutex serializes deadline-bounded dial
		conn, err := net.DialTimeout("tcp", sc.addr, c.cfg.Timeout)
		if err != nil {
			return frame{}, err
		}
		sc.conn = conn
		sc.br = bufio.NewReader(conn)
		c.m.reconnects.Inc()
		hello := helloMsg{WorkerID: c.cfg.WorkerID, Epoch: c.epoch.Load(), Seed: c.cfg.Seed,
			Dim: c.cfg.Dim, Tables: c.cfg.Tables}
		// The implicit re-dial Hello inherits the caller's trace context, so
		// a reconnect shows up in the trace as a handle:hello child of the
		// RPC that triggered it.
		//elrec:lockorder per-connection mutex serializes deadline-bounded exchange
		f, err := sc.exchangeLocked(c, msgHello, hello.encode(), tctx)
		if err != nil {
			return frame{}, err
		}
		body, err := checkReply(f, msgHelloAck)
		if err != nil {
			return frame{}, err
		}
		ack, err := decodeHelloAck(body)
		if err != nil {
			//elrec:lockorder net.Conn.Close does not block
			sc.poisonLocked()
			return frame{}, err
		}
		if ack.ShardID != sc.index || ack.NumShards != len(c.cfg.Shards) {
			//elrec:lockorder net.Conn.Close does not block
			sc.poisonLocked()
			return frame{}, fmt.Errorf("%w: dialed shard %d/%d, reached %d/%d",
				errSpecMismatch, sc.index, len(c.cfg.Shards), ack.ShardID, ack.NumShards)
		}
	}
	//elrec:lockorder per-connection mutex serializes deadline-bounded exchange
	return sc.exchangeLocked(c, typ, payload, tctx)
}

// checkReply unwraps a response frame: msgError becomes the matching typed
// sentinel, a wrong type is a protocol violation.
func checkReply(f frame, want uint8) ([]byte, error) {
	if f.Type == msgError {
		em, derr := decodeErr(f.Payload)
		if derr != nil {
			return nil, derr
		}
		return nil, fmt.Errorf("%w (remote: %s)", sentinelFor(em.Code), em.Msg)
	}
	if f.Type != want {
		return nil, fmt.Errorf("%w: reply type %s, want %s", errBadFrame, msgName(f.Type), msgName(want))
	}
	return f.Payload, nil
}

// retryable classifies errors: transport faults (connection, deadline,
// frame corruption) and a draining shard are worth retrying — the request
// payload is idempotent by construction. Typed application rejections are
// not: fencing, spec and lease conflicts need the caller's recovery logic,
// and an unrestored shard only becomes useful after an explicit Restore.
func retryable(err error) bool {
	switch {
	case errors.Is(err, errFenced),
		errors.Is(err, errSpecMismatch),
		errors.Is(err, errBadRequest),
		errors.Is(err, errLeaseHeld),
		errors.Is(err, errNoCheckpoint),
		errors.Is(err, errNotRestored):
		return false
	}
	return true
}

// call is the retrying RPC: the payload is reused verbatim across attempts
// (pushes carry their seq, so replays dedupe server-side). The expected
// response type is the request's ackFor. Each attempt's transport outcome
// sets the shard's distps_shard<i>_up gauge: 1 when a reply frame came
// back (a typed rejection included), 0 when none did. ctx
// cancellation aborts between attempts and during backoff; an in-flight
// socket exchange still runs to its own deadline.
func (c *Client) call(ctx context.Context, shard int, typ uint8, payload []byte) ([]byte, error) {
	sc := c.conns[shard]
	want := ackFor(typ)
	var last error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("shard %d %s: %w", shard, msgName(typ), err)
		}
		start := c.clock.Now()
		// One span per attempt, each rooting its own trace: a retried RPC
		// shows as separate worker-side slices, each flowing to its own
		// shard-side handler span.
		sp := c.trace.BeginTrace(msgName(typ), "rpc", rpcTID(shard))
		f, err := sc.roundTrip(c, typ, payload, sp.Context())
		sp.End()
		if err != nil {
			c.m.up[shard].Set(0)
		} else {
			c.m.up[shard].Set(1)
			var body []byte
			body, err = checkReply(f, want)
			if err == nil {
				c.m.latency[typ].Observe(float64(obs.Since(c.clock, start)))
				return body, nil
			}
			if errors.Is(err, errBadFrame) {
				sc.mu.Lock()
				//elrec:lockorder net.Conn.Close does not block
				sc.poisonLocked()
				sc.mu.Unlock()
			}
		}
		last = err
		if !retryable(err) {
			return nil, fmt.Errorf("shard %d %s: %w", shard, msgName(typ), err)
		}
		if attempt >= c.retry.MaxRetries {
			return nil, fmt.Errorf("%w: shard %d %s after %d attempts: %w", errRPCFailed, shard, msgName(typ), attempt+1, last)
		}
		c.m.retries.Inc()
		if err := c.retry.Wait(ctx, c.retry.Delay(attempt)); err != nil {
			return nil, fmt.Errorf("shard %d %s: %w", shard, msgName(typ), err)
		}
	}
}

// --- RPC surface -----------------------------------------------------------

// HelloAll dials and validates every shard.
func (c *Client) HelloAll(ctx context.Context) error {
	hello := helloMsg{WorkerID: c.cfg.WorkerID, Epoch: c.epoch.Load(), Seed: c.cfg.Seed,
		Dim: c.cfg.Dim, Tables: c.cfg.Tables}
	for i := range c.conns {
		body, err := c.call(ctx, i, msgHello, hello.encode())
		if err != nil {
			return err
		}
		if _, err := decodeHelloAck(body); err != nil {
			return err
		}
	}
	return nil
}

// Gather fetches the given rows of one table from one shard.
func (c *Client) Gather(ctx context.Context, shard, table int, rows []int) ([]float32, error) {
	out := make([]float32, 0, len(rows)*c.cfg.Dim)
	for off := 0; off < len(rows); off += maxRowsPerRPC {
		end := min(off+maxRowsPerRPC, len(rows))
		body, err := c.call(ctx, shard, msgGather, gatherMsg{Table: table, Rows: rows[off:end]}.encode())
		if err != nil {
			return nil, err
		}
		m, err := decodeRows(body)
		if err != nil {
			return nil, err
		}
		if m.Dim != c.cfg.Dim || len(m.Values) != (end-off)*c.cfg.Dim {
			return nil, fmt.Errorf("%w: gather returned %d values of dim %d for %d rows",
				errBadFrame, len(m.Values), m.Dim, end-off)
		}
		out = append(out, m.Values...)
	}
	return out, nil
}

// Push applies a pre-scaled delta to rows of one table on one shard. seq
// must come from nextSeq; the encoded payload is what makes retries
// idempotent.
func (c *Client) Push(ctx context.Context, shard int, seq uint64, table int, rows []int, delta []float32) error {
	m := pushMsg{Epoch: c.epoch.Load(), Seq: seq, Table: table, Rows: rows, Dim: c.cfg.Dim, Delta: delta}
	body, err := c.call(ctx, shard, msgPush, m.encode())
	if err != nil {
		return err
	}
	_, err = decodePushAck(body)
	return err
}

// CheckpointAll asks every shard to make version v durable. It is the
// remote half of the coordinated checkpoint: the worker's local state file
// is only written after every shard acked.
func (c *Client) CheckpointAll(ctx context.Context, v int64) error {
	return c.versionAll(ctx, msgCheckpoint, v)
}

// RestoreAll tells every shard to reload durable version v. Restoring the
// whole set — not just a restarted shard — rolls back any shard that
// applied pushes past the checkpoint before a crash tore the run.
func (c *Client) RestoreAll(ctx context.Context, v int64) error {
	return c.versionAll(ctx, msgRestore, v)
}

// versionAll sends a checkpoint or restore of version v to every shard in
// turn. A shard whose ack names another version is a protocol violation.
func (c *Client) versionAll(ctx context.Context, typ uint8, v int64) error {
	m := versionMsg{Epoch: c.epoch.Load(), Version: v}
	for i := range c.conns {
		body, err := c.call(ctx, i, typ, m.encode())
		if err != nil {
			return err
		}
		ack, err := decodeVersionAck(body)
		if err != nil {
			return err
		}
		if ack.Version != v {
			return fmt.Errorf("%w: shard %d %s acked version %d, want %d", errBadFrame, i, msgName(typ), ack.Version, v)
		}
	}
	return nil
}

// Stats fetches one shard's observability snapshot: its metrics registry,
// thread table, and up to maxSpans most-recent completed spans (0 = all
// retained). Stats is served even by an unrestored or draining shard.
//
// The exchange doubles as an NTP-style clock-offset sample: with t0/t1 the
// local send/receive instants and ts the shard clock when the ack was
// built, the estimate is ts − (t0 + (t1−t0)/2), the shard clock minus the
// local clock assuming symmetric network delay; ts was read somewhere in
// [t0, t1], so the error is at most (t1−t0)/2. The midpoint is computed as
// t0 + (t1−t0)/2 — never (t0+t1)/2, which overflows int64 for the
// near-minimal UnixNanos a zero time.Time reports. The estimate also sets
// the distps_shard<i>_clock_offset_ns gauge.
func (c *Client) Stats(ctx context.Context, shard, maxSpans int) (ShardStats, error) {
	t0 := c.clock.Now().UnixNano()
	body, err := c.call(ctx, shard, msgStats, statsMsg{MaxSpans: maxSpans}.encode())
	t1 := c.clock.Now().UnixNano()
	if err != nil {
		return ShardStats{}, err
	}
	ack, err := decodeStatsAck(body)
	if err != nil {
		return ShardStats{}, err
	}
	st := ShardStats{
		ShardID:        ack.ShardID,
		ClockOffsetNS:  ack.NowUnixNanos - (t0 + (t1-t0)/2),
		EpochUnixNanos: ack.EpochUnixNanos,
		Dropped:        ack.Dropped,
		Threads:        ack.Threads,
		Spans:          make([]obs.Span, len(ack.Spans)),
	}
	for i, r := range ack.Spans {
		st.Spans[i] = obs.Span{Name: r.Name, Cat: r.Cat, TID: r.TID,
			Start: time.Duration(r.Start), Dur: time.Duration(r.Dur),
			Trace: r.Trace, ID: r.ID, Parent: r.Parent}
	}
	if ack.MetricsJSON != "" {
		if err := json.Unmarshal([]byte(ack.MetricsJSON), &st.Metrics); err != nil {
			return ShardStats{}, fmt.Errorf("%w: shard %d metrics snapshot: %w", errBadFrame, shard, err)
		}
	}
	c.m.offset[shard].Set(float64(st.ClockOffsetNS))
	return st, nil
}

// ShardStats is one shard's decoded observability snapshot.
type ShardStats struct {
	ShardID        int
	ClockOffsetNS  int64 // shard clock − local clock, estimated from this exchange
	EpochUnixNanos int64 // shard tracer epoch (span Starts are relative to it)
	Dropped        int64 // span-ring overwrites on the shard
	Metrics        obs.Snapshot
	Threads        map[int]string
	Spans          []obs.Span
}

// AcquireLease acquires the trainer lease from the lease-authority shard
// (shard 0), installs the granted epoch, and returns it.
func (c *Client) AcquireLease(ctx context.Context) (uint64, error) {
	m := leaseMsg{WorkerID: c.cfg.WorkerID, TTLMS: uint64(c.cfg.LeaseTTL / time.Millisecond)}
	body, err := c.call(ctx, 0, msgLease, m.encode())
	if err != nil {
		return 0, err
	}
	ack, err := decodeLeaseAck(body)
	if err != nil {
		return 0, err
	}
	c.SetEpoch(ack.Epoch)
	return ack.Epoch, nil
}

// RenewLease extends the currently held lease.
func (c *Client) RenewLease(ctx context.Context) error {
	m := leaseMsg{WorkerID: c.cfg.WorkerID, Renew: true, Epoch: c.epoch.Load(),
		TTLMS: uint64(c.cfg.LeaseTTL / time.Millisecond)}
	body, err := c.call(ctx, 0, msgLease, m.encode())
	if err != nil {
		return err
	}
	_, err = decodeLeaseAck(body)
	return err
}

// Close closes every connection.
func (c *Client) Close() error {
	for _, sc := range c.conns {
		sc.mu.Lock()
		//elrec:lockorder net.Conn.Close does not block
		sc.poisonLocked()
		sc.mu.Unlock()
	}
	return nil
}

// --- ps.HostStore adapter --------------------------------------------------

// Store returns the pipeline-facing store for one of the client's tables.
// ctx bounds every RPC the store issues: ps.HostStore predates the
// cancellation contract (its methods take no context), so the store
// captures the training run's context at construction — a new store is
// built per run, alongside the pipeline it feeds.
func (c *Client) Store(ctx context.Context, spec TableSpec) ps.HostStore {
	return &remoteStore{c: c, spec: spec, ctx: ctx}
}

// remoteStore implements ps.HostStore over the shard set: gathers fan out
// by ring ownership and reassemble in request order; deltas fan out with
// fresh seqs per message, so transport replays dedupe server-side and a
// completed ApplyDelta is fully visible to subsequent gathers (the shard
// applies under its state lock before acking).
type remoteStore struct {
	c    *Client
	spec TableSpec
	ctx  context.Context // the owning run's context (see Store)
}

var _ ps.HostStore = (*remoteStore)(nil)

// group splits row ids by owning shard, remembering each row's position in
// the original request.
func (s *remoteStore) group(uniq []int) (rows [][]int, pos [][]int) {
	n := len(s.c.conns)
	rows = make([][]int, n)
	pos = make([][]int, n)
	for i, r := range uniq {
		o := s.c.ring.Owner(s.spec.Index, r)
		rows[o] = append(rows[o], r)
		pos[o] = append(pos[o], i)
	}
	return rows, pos
}

// GatherRows fetches the current value of each requested row into dst,
// row ids[k] into dst.Row(at[k]) (dst.Row(k) when at is nil).
func (s *remoteStore) GatherRows(ids, at []int, dst *tensor.Matrix) error {
	dim := s.c.cfg.Dim
	rows, pos := s.group(ids)
	for sh := range rows {
		if len(rows[sh]) == 0 {
			continue
		}
		values, err := s.c.Gather(s.ctx, sh, s.spec.Index, rows[sh])
		if err != nil {
			return fmt.Errorf("table %d shard %d: %w", s.spec.Index, sh, err)
		}
		for j, p := range pos[sh] {
			if at != nil {
				p = at[p]
			}
			copy(dst.Row(p), values[j*dim:(j+1)*dim])
		}
	}
	return nil
}

// ApplyDelta scatters the pre-scaled delta across the owning shards.
func (s *remoteStore) ApplyDelta(uniq []int, delta *tensor.Matrix) error {
	dim := s.c.cfg.Dim
	rows, pos := s.group(uniq)
	for sh := range rows {
		if len(rows[sh]) == 0 {
			continue
		}
		for off := 0; off < len(rows[sh]); off += maxRowsPerRPC {
			end := min(off+maxRowsPerRPC, len(rows[sh]))
			sub := make([]float32, 0, (end-off)*dim)
			for _, p := range pos[sh][off:end] {
				sub = append(sub, delta.Row(p)...)
			}
			if err := s.c.Push(s.ctx, sh, s.c.nextSeq(), s.spec.Index, rows[sh][off:end], sub); err != nil {
				return fmt.Errorf("table %d shard %d: %w", s.spec.Index, sh, err)
			}
		}
	}
	return nil
}

// NumRows returns the table's total row count.
func (s *remoteStore) NumRows() int { return s.spec.Rows }

// Dim returns the embedding dimension.
func (s *remoteStore) Dim() int { return s.c.cfg.Dim }
