package distps

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/codec"
	"repro/internal/embedding"
	"repro/internal/obs"
	"repro/internal/ps"
)

// spawn starts fn on a new goroutine. The gospawn analyzer requires every
// goroutine in this package to be born inside a function literally named
// spawn, so ownership stays auditable at one choke point. A panic in fn ends
// its goroutine, not the process: spawn recovers it and logs it at Error
// with the goroutine's name and attrs (the shard or worker id).
func spawn(log *slog.Logger, name string, fn func(), attrs ...any) {
	go func() {
		defer func() {
			if r := recover(); r != nil {
				log.Error("distps: goroutine panic", append([]any{"goroutine", name, "panic", fmt.Sprint(r)}, attrs...)...)
			}
		}()
		fn()
	}()
}

// orDiscard returns l, or a logger that writes nothing when l is nil.
func orDiscard(l *slog.Logger) *slog.Logger {
	if l == nil {
		return slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return l
}

// shardTable holds this shard's slice of one overflow embedding table: the
// rows the consistent-hash ring assigns to the shard, packed densely.
//
// Initialization is bit-exact with the single-process reference: NewBag
// fills its rows×dim matrix from one sequential RNG stream (ps.HostRNG, at
// embedding.InitScale), so the shard jumps that generator to each owned
// row's first draw (RNG.Skip) and fills only that row — every participant
// derives identical values without drawing or materializing the full table.
type shardTable struct {
	spec  TableSpec
	dim   int
	slots map[int]int // global row -> local slot
	rows  []int       // local slot -> global row, ascending
	data  []float32   // len(rows) × dim, row-major
}

// newShardTable builds the shard-local slice of table spec for shardID.
func newShardTable(spec TableSpec, dim int, seed uint64, ring *hashRing, shardID int) *shardTable {
	t := &shardTable{spec: spec, dim: dim, slots: make(map[int]int)}
	for r := 0; r < spec.Rows; r++ {
		if ring.owner(spec.Index, r) == shardID {
			t.slots[r] = len(t.rows)
			t.rows = append(t.rows, r)
		}
	}
	t.data = make([]float32, len(t.rows)*dim)
	rng := ps.HostRNG(seed, spec.Index)
	scale := embedding.InitScale(spec.Rows)
	next := 0 // the row rng's next draw starts
	for slot, r := range t.rows {
		rng.Skip(uint64((r - next) * dim))
		rng.FillUniform(t.data[slot*dim:(slot+1)*dim], scale)
		next = r + 1
	}
	return t
}

// gatherValues copies the requested rows (which must all be owned) into a
// fresh buffer, len(rows)×dim.
func (t *shardTable) gatherValues(rows []int) ([]float32, error) {
	out := make([]float32, len(rows)*t.dim)
	for i, r := range rows {
		slot, ok := t.slots[r]
		if !ok {
			return nil, fmt.Errorf("%w: table %d row %d not owned by this shard", errBadRequest, t.spec.Index, r)
		}
		copy(out[i*t.dim:(i+1)*t.dim], t.data[slot*t.dim:(slot+1)*t.dim])
	}
	return out, nil
}

// applyDelta adds delta (len(rows)×dim) into the owned rows. Ownership is
// validated for every row before any element is touched, so a bad request
// cannot leave a half-applied push behind.
func (t *shardTable) applyDelta(rows []int, delta []float32) error {
	if len(delta) != len(rows)*t.dim {
		return fmt.Errorf("%w: table %d delta has %d values for %d rows × dim %d", errBadRequest, t.spec.Index, len(delta), len(rows), t.dim)
	}
	for _, r := range rows {
		if _, ok := t.slots[r]; !ok {
			return fmt.Errorf("%w: table %d row %d not owned by this shard", errBadRequest, t.spec.Index, r)
		}
	}
	for i, r := range rows {
		slot := t.slots[r]
		dst := t.data[slot*t.dim : (slot+1)*t.dim]
		src := delta[i*t.dim : (i+1)*t.dim]
		for j := range dst {
			dst[j] += src[j]
		}
	}
	return nil
}

const (
	// retainVersions is how many checkpoint versions a shard keeps; the
	// coordinated-checkpoint protocol needs at least 2.
	retainVersions = 3
	// idleTimeout closes connections with no traffic; a client whose
	// connection timed out re-dials on its next RPC.
	idleTimeout = 2 * time.Minute
)

// ShardConfig configures one PS shard server.
type ShardConfig struct {
	ID        int // this shard's index in [0, NumShards)
	NumShards int

	// Dim, Seed and Tables define the overflow-table universe; every
	// worker's Hello must match them exactly.
	Dim    int
	Seed   uint64
	Tables []TableSpec

	// Dir holds the shard's durable state: versioned checkpoint files and
	// the fencing-epoch file.
	Dir string

	// LeaseTTL is the default trainer-lease duration when a lease request
	// carries none (default 3s).
	LeaseTTL time.Duration

	// DrainTimeout bounds how long Close waits for in-flight requests
	// before force-closing connections (default 5s).
	DrainTimeout time.Duration

	Metrics *obs.Registry // per-shard distps_shard<ID>_* and distps_srv_* instruments; nil = off
	Trace   *obs.Tracer   // handler spans + the msgStats span export; nil = off
	Log     *slog.Logger  // nil = silent
}

// leaseState is the trainer lease granted by the lease-authority shard.
type leaseState struct {
	holder uint64
	epoch  uint64
	expiry time.Time
}

// shardMetrics are the per-shard instruments (nil instruments no-op).
type shardMetrics struct {
	requests      *obs.Counter
	errors        *obs.Counter
	gathers       *obs.Counter
	pushesApplied *obs.Counter
	pushesDeduped *obs.Counter
	fenced        *obs.Counter
	checkpoints   *obs.Counter
	restores      *obs.Counter
	version       *obs.Gauge
	epoch         *obs.Gauge
	draining      *obs.Gauge
	conns         *obs.Gauge

	// Server-side RPC telemetry. The distps_srv_* names carry no shard
	// prefix: each shard owns its registry, and the cluster view keys the
	// merged table by shard, so the names stay comparable across shards.
	srvNS    [msgTypes]*obs.Histogram // per request type, distps_srv_<name>_ns
	bytesIn  *obs.Counter             // distps_srv_bytes_in (frames received, header+payload)
	bytesOut *obs.Counter             // distps_srv_bytes_out (frames sent)
	inflight *obs.Gauge               // distps_srv_inflight (requests between decode and flush)
}

// Shard is one PS shard server: it owns the consistent-hash slice of every
// overflow table, applies pushes exactly once, fences stale lease epochs,
// writes versioned durable checkpoints, and (as shard 0) grants the
// trainer lease.
type Shard struct {
	cfg   ShardConfig
	ring  *hashRing
	clock obs.Clock
	log   *slog.Logger
	m     shardMetrics

	mu       sync.Mutex
	tables   map[int]*shardTable     // guarded by mu; key = model table index
	restored bool                    // guarded by mu; false after a restart until Restore
	version  int64                   // guarded by mu; latest durable checkpoint version
	maxEpoch uint64                  // guarded by mu; highest lease epoch seen (fencing)
	lastSeq  map[uint64]uint64       // guarded by mu; per-epoch last applied push seq (dedup)
	lease    leaseState              // guarded by mu
	draining bool                    // guarded by mu
	conns    map[net.Conn]*connEntry // guarded by mu
	ln       net.Listener            // guarded by mu

	trace    *obs.Tracer
	connSeq  atomic.Int64 // trace lane allocator for connections
	inflight atomic.Int64

	wg sync.WaitGroup
}

// connEntry tracks one accepted connection for the drain protocol.
type connEntry struct {
	busy atomic.Bool // request in flight (between decode and response flush)
	tid  int         // trace lane for this connection's handler spans
}

// NewShard builds the shard, materializes its owned rows, and establishes
// durable state: a fresh shard (empty Dir) writes checkpoint version 0 and
// serves immediately; a restarted shard (checkpoint files present) refuses
// data RPCs with errNotRestored until the trainer tells it which version
// to reload — its in-memory init values are stale by definition.
func NewShard(cfg ShardConfig) (*Shard, error) {
	if cfg.NumShards < 1 || cfg.ID < 0 || cfg.ID >= cfg.NumShards {
		return nil, fmt.Errorf("%w: shard id %d of %d", errBadRequest, cfg.ID, cfg.NumShards)
	}
	if cfg.Dim <= 0 || len(cfg.Tables) == 0 {
		return nil, fmt.Errorf("%w: shard needs a positive dim and at least one table", errBadRequest)
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("%w: shard needs a durable state directory", errBadRequest)
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 3 * time.Second
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 5 * time.Second
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	s := &Shard{
		cfg:     cfg,
		ring:    newHashRing(cfg.NumShards),
		clock:   obs.System(),
		log:     orDiscard(cfg.Log),
		trace:   cfg.Trace,
		tables:  make(map[int]*shardTable),
		lastSeq: make(map[uint64]uint64),
		conns:   make(map[net.Conn]*connEntry),
	}
	prefix := fmt.Sprintf("distps_shard%d_", cfg.ID)
	r := cfg.Metrics
	s.m = shardMetrics{
		requests:      r.Counter(prefix + "requests"),
		errors:        r.Counter(prefix + "errors"),
		gathers:       r.Counter(prefix + "gathers"),
		pushesApplied: r.Counter(prefix + "pushes_applied"),
		pushesDeduped: r.Counter(prefix + "pushes_deduped"),
		fenced:        r.Counter(prefix + "fenced"),
		checkpoints:   r.Counter(prefix + "checkpoints"),
		restores:      r.Counter(prefix + "restores"),
		version:       r.Gauge(prefix + "version"),
		epoch:         r.Gauge(prefix + "epoch"),
		draining:      r.Gauge(prefix + "draining"),
		conns:         r.Gauge(prefix + "conns"),
		bytesIn:       r.Counter("distps_srv_bytes_in"),
		bytesOut:      r.Counter("distps_srv_bytes_out"),
		inflight:      r.Gauge("distps_srv_inflight"),
	}
	for t, row := range rpcs {
		if row.serve != nil {
			s.m.srvNS[t] = r.Histogram("distps_srv_" + row.name + "_ns")
		}
	}
	for _, spec := range cfg.Tables {
		if spec.Rows <= 0 {
			return nil, fmt.Errorf("%w: table %d has %d rows", errBadRequest, spec.Index, spec.Rows)
		}
		if _, dup := s.tables[spec.Index]; dup {
			return nil, fmt.Errorf("%w: duplicate table index %d", errBadRequest, spec.Index)
		}
		s.tables[spec.Index] = newShardTable(spec, cfg.Dim, cfg.Seed, s.ring, cfg.ID)
	}
	if err := s.loadEpochFile(); err != nil {
		return nil, err
	}
	versions := s.listVersions()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(versions) == 0 {
		// First boot: make version 0 (the deterministic init state) durable
		// before serving, so a later restart always has something to restore.
		if err := s.writeCheckpointLocked(0); err != nil {
			return nil, err
		}
		s.restored = true
	} else {
		s.version = versions[len(versions)-1]
		s.restored = false
	}
	s.m.version.Set(float64(s.version))
	s.m.epoch.Set(float64(s.maxEpoch))
	return s, nil
}

// Restored reports whether the shard is serving data RPCs (true after
// first boot or a successful Restore).
func (s *Shard) Restored() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.restored
}

// Version returns the latest durable checkpoint version.
func (s *Shard) Version() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version
}

// Ready reports whether the shard is serving data RPCs: restored and not
// draining. The /readyz endpoint exposes it.
func (s *Shard) Ready() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.restored && !s.draining
}

// --- durable state ---------------------------------------------------------

// Shard checkpoint file layout (little-endian, via the msg.go cursors):
// magic, format version, identity (shard id, shard count, dim, seed),
// checkpoint version, the per-epoch push-dedup watermarks, then every table's
// owned rows. The owned-row id list is not stored: it is recomputed from
// the ring at load and validated by count, so the file cannot disagree
// with the placement function.
const (
	shardCkptMagic = uint32(0xE17DC4B7)
	shardCkptVer   = uint8(1)
)

func (s *Shard) ckptPath(v int64) string {
	return filepath.Join(s.cfg.Dir, fmt.Sprintf("shard-%d.v%d.ckpt", s.cfg.ID, v))
}

func (s *Shard) epochPath() string {
	return filepath.Join(s.cfg.Dir, fmt.Sprintf("shard-%d.epoch", s.cfg.ID))
}

// listVersions returns the checkpoint versions present in Dir, ascending.
func (s *Shard) listVersions() []int64 {
	entries, err := os.ReadDir(s.cfg.Dir)
	if err != nil {
		return nil
	}
	prefix := fmt.Sprintf("shard-%d.v", s.cfg.ID)
	var out []int64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ".ckpt") {
			continue
		}
		v, err := strconv.ParseInt(name[len(prefix):len(name)-len(".ckpt")], 10, 64)
		if err != nil {
			continue
		}
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// loadEpochFile restores the fencing watermark; without it a restarted
// shard would accept pushes from a worker that was fenced off before the
// crash.
//
//elrec:locked mu construction: the shard is unpublished until NewShard returns
func (s *Shard) loadEpochFile() error {
	b, err := os.ReadFile(s.epochPath())
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	if len(b) != 8 {
		return fmt.Errorf("%w: epoch file has %d bytes", checkpoint.ErrCorruptCheckpoint, len(b))
	}
	s.maxEpoch = codec.NewDec(b).U64()
	return nil
}

// persistEpochLocked makes the fencing watermark durable.
//
//elrec:locked mu callers hold s.mu (lease/push handlers) or own the unpublished shard
func (s *Shard) persistEpochLocked() error {
	var e codec.Enc
	e.U64(s.maxEpoch)
	_, err := checkpoint.WriteFileAtomic(s.epochPath(), func(w io.Writer) error {
		_, werr := w.Write(e.Buf)
		return werr
	})
	if err != nil {
		return fmt.Errorf("%w: persisting epoch: %w", errInternal, err)
	}
	s.m.epoch.Set(float64(s.maxEpoch))
	return nil
}

// writeCheckpointLocked makes the current state durable as version v and
// prunes old versions beyond Retain. The worker is at a drain barrier when
// it coordinates a checkpoint, so nothing contends.
//
//elrec:locked mu the checkpoint handler holds s.mu; first boot owns the unpublished shard
func (s *Shard) writeCheckpointLocked(v int64) error {
	epochs := make([]uint64, 0, len(s.lastSeq))
	for ep := range s.lastSeq {
		epochs = append(epochs, ep)
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	_, err := checkpoint.WriteFileAtomic(s.ckptPath(v), func(w io.Writer) error {
		e := codec.NewWriter(w)
		e.U32(shardCkptMagic)
		e.U8(shardCkptVer)
		e.U32(uint32(s.cfg.ID))
		e.U32(uint32(s.cfg.NumShards))
		e.U32(uint32(s.cfg.Dim))
		e.U64(s.cfg.Seed)
		e.I64(v)
		e.U32(uint32(len(epochs)))
		for _, ep := range epochs {
			e.U64(ep)
			e.U64(s.lastSeq[ep])
		}
		e.U32(uint32(len(s.cfg.Tables)))
		for _, spec := range s.cfg.Tables {
			t := s.tables[spec.Index]
			e.U32(uint32(spec.Index))
			e.U64(uint64(spec.Rows))
			e.U32(uint32(len(t.rows)))
			e.F32s(t.data)
		}
		return e.Flush()
	})
	if err != nil {
		return fmt.Errorf("%w: writing shard checkpoint v%d: %w", errInternal, v, err)
	}
	s.version = v
	s.m.version.Set(float64(v))
	s.m.checkpoints.Inc()
	if versions := s.listVersions(); len(versions) > retainVersions {
		for _, old := range versions[:len(versions)-retainVersions] {
			if rerr := os.Remove(s.ckptPath(old)); rerr != nil {
				s.log.Warn("distps: pruning old checkpoint", "shard", s.cfg.ID, "version", old, "err", rerr)
			}
		}
	}
	return nil
}

// restoreLocked reloads durable version v.
//
//elrec:locked mu the restore handler holds s.mu across the reload
func (s *Shard) restoreLocked(v int64) error {
	b, err := os.ReadFile(s.ckptPath(v))
	if os.IsNotExist(err) {
		return fmt.Errorf("%w: shard %d version %d", errNoCheckpoint, s.cfg.ID, v)
	}
	if err != nil {
		return fmt.Errorf("%w: %w", errInternal, err)
	}
	d := codec.NewDec(b)
	if m := d.U32(); m != shardCkptMagic {
		d.Fail(fmt.Errorf("bad magic %#x", m))
	}
	if fv := d.U8(); fv != shardCkptVer {
		d.Fail(fmt.Errorf("format version %d", fv))
	}
	id, n, dim := int(d.U32()), int(d.U32()), int(d.U32())
	seed := d.U64()
	fileV := d.I64()
	if d.Err() == nil && (id != s.cfg.ID || n != s.cfg.NumShards || dim != s.cfg.Dim || seed != s.cfg.Seed || fileV != v) {
		return fmt.Errorf("%w: checkpoint identity (shard %d/%d dim %d seed %d v%d) does not match this shard", errSpecMismatch, id, n, dim, seed, fileV)
	}
	nw := d.Count(16) // a writer's epoch and its last sequence number
	lastSeq := make(map[uint64]uint64, nw)
	for i := 0; i < nw; i++ {
		w := d.U64()
		lastSeq[w] = d.U64()
	}
	nt := d.Count(16) // a table's index, row count and owned-row count
	if nt != len(s.cfg.Tables) {
		d.Fail(fmt.Errorf("%d tables, want %d", nt, len(s.cfg.Tables)))
	}
	fresh := make(map[int]*shardTable, len(s.cfg.Tables))
	for i := 0; i < nt && d.Err() == nil; i++ {
		idx, rows, owned := int(d.U32()), int(d.I64()), int(d.U32())
		spec, ok := s.tables[idx]
		switch {
		case d.Err() != nil:
		case !ok || spec.spec.Rows != rows:
			return fmt.Errorf("%w: checkpoint table %d (%d rows) unknown to this shard", errSpecMismatch, idx, rows)
		case owned != len(spec.rows):
			d.Fail(fmt.Errorf("table %d has %d owned rows, ring says %d", idx, owned, len(spec.rows)))
		default:
			fresh[idx] = &shardTable{spec: spec.spec, dim: s.cfg.Dim, slots: spec.slots, rows: spec.rows, data: d.F32s(owned * s.cfg.Dim)}
		}
	}
	if err := d.Done(); err != nil {
		return fmt.Errorf("%w: shard checkpoint v%d: %w", checkpoint.ErrCorruptCheckpoint, v, err)
	}
	for idx, t := range fresh {
		s.tables[idx] = t
	}
	s.lastSeq = lastSeq
	s.version = v
	s.restored = true
	s.m.version.Set(float64(v))
	s.m.restores.Inc()
	return nil
}

// --- fencing and leases ----------------------------------------------------

// learnEpochLocked raises (and persists) the fencing watermark.
//
//elrec:locked mu push/lease handlers hold s.mu
func (s *Shard) learnEpochLocked(e uint64) error {
	if e <= s.maxEpoch {
		return nil
	}
	s.maxEpoch = e
	return s.persistEpochLocked()
}

// fenceLocked rejects epochs below the watermark.
//
//elrec:locked mu push/checkpoint/restore handlers hold s.mu
func (s *Shard) fenceLocked(e uint64) error {
	if e < s.maxEpoch {
		s.m.fenced.Inc()
		return fmt.Errorf("%w: epoch %d, shard has seen %d", errFenced, e, s.maxEpoch)
	}
	return nil
}

// --- RPC handlers ----------------------------------------------------------

func (s *Shard) hello(m helloMsg) (helloAck, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m.Dim != s.cfg.Dim || m.Seed != s.cfg.Seed || len(m.Tables) != len(s.cfg.Tables) {
		return helloAck{}, fmt.Errorf("%w: worker (dim %d seed %d %d tables) vs shard (dim %d seed %d %d tables)",
			errSpecMismatch, m.Dim, m.Seed, len(m.Tables), s.cfg.Dim, s.cfg.Seed, len(s.cfg.Tables))
	}
	for i, t := range m.Tables {
		if t != s.cfg.Tables[i] {
			return helloAck{}, fmt.Errorf("%w: table %d is %+v on the worker, %+v on the shard", errSpecMismatch, i, t, s.cfg.Tables[i])
		}
	}
	if err := s.learnEpochLocked(m.Epoch); err != nil {
		return helloAck{}, err
	}
	return helloAck{ShardID: s.cfg.ID, NumShards: s.cfg.NumShards}, nil
}

func (s *Shard) gather(m gatherMsg) (rowsMsg, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return rowsMsg{}, errDraining
	}
	if !s.restored {
		return rowsMsg{}, errNotRestored
	}
	t, ok := s.tables[m.Table]
	if !ok {
		return rowsMsg{}, fmt.Errorf("%w: unknown table %d", errBadRequest, m.Table)
	}
	values, err := t.gatherValues(m.Rows)
	if err != nil {
		return rowsMsg{}, err
	}
	s.m.gathers.Inc()
	return rowsMsg{Dim: s.cfg.Dim, Values: values}, nil
}

func (s *Shard) push(m pushMsg) (pushAck, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return pushAck{}, errDraining
	}
	if !s.restored {
		return pushAck{}, errNotRestored
	}
	if err := s.learnEpochLocked(m.Epoch); err != nil {
		return pushAck{}, err
	}
	if err := s.fenceLocked(m.Epoch); err != nil {
		return pushAck{}, err
	}
	if m.Dim != s.cfg.Dim {
		return pushAck{}, fmt.Errorf("%w: push dim %d, shard dim %d", errBadRequest, m.Dim, s.cfg.Dim)
	}
	t, ok := s.tables[m.Table]
	if !ok {
		return pushAck{}, fmt.Errorf("%w: unknown table %d", errBadRequest, m.Table)
	}
	// Dedup is keyed by lease epoch: the lease guarantees a single writer
	// per epoch, and that writer allocates seqs from one atomic counter, so
	// within an epoch seqs arrive strictly increasing and any replay — a
	// transport retry or a duplicated frame — is an exact duplicate of an
	// already-applied seq.
	if m.Seq <= s.lastSeq[m.Epoch] {
		s.m.pushesDeduped.Inc()
		return pushAck{Applied: false}, nil
	}
	if err := t.applyDelta(m.Rows, m.Delta); err != nil {
		return pushAck{}, err
	}
	s.lastSeq[m.Epoch] = m.Seq
	s.m.pushesApplied.Inc()
	return pushAck{Applied: true}, nil
}

func (s *Shard) checkpointRPC(m versionMsg) (versionAck, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return versionAck{}, errDraining
	}
	if !s.restored {
		return versionAck{}, errNotRestored
	}
	if err := s.learnEpochLocked(m.Epoch); err != nil {
		return versionAck{}, err
	}
	if err := s.fenceLocked(m.Epoch); err != nil {
		return versionAck{}, err
	}
	if err := s.writeCheckpointLocked(m.Version); err != nil {
		return versionAck{}, err
	}
	return versionAck{Version: m.Version}, nil
}

func (s *Shard) restoreRPC(m versionMsg) (versionAck, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return versionAck{}, errDraining
	}
	if err := s.learnEpochLocked(m.Epoch); err != nil {
		return versionAck{}, err
	}
	if err := s.fenceLocked(m.Epoch); err != nil {
		return versionAck{}, err
	}
	if err := s.restoreLocked(m.Version); err != nil {
		return versionAck{}, err
	}
	return versionAck{Version: m.Version}, nil
}

// statsRPC exports the shard's observability state. It deliberately takes
// no shard lock and skips every gate (restore, drain, fencing): stats must
// stay readable exactly when the shard is unhealthy, and it only reads
// self-locking structures (registry, tracer) plus immutable config.
func (s *Shard) statsRPC(m statsMsg) (statsAck, error) {
	metricsJSON, err := json.Marshal(s.cfg.Metrics.Snapshot())
	if err != nil {
		return statsAck{}, fmt.Errorf("%w: encoding metrics snapshot: %w", errInternal, err)
	}
	spans := s.trace.Spans()
	if m.MaxSpans > 0 && len(spans) > m.MaxSpans {
		spans = spans[len(spans)-m.MaxSpans:] // most recent window
	}
	recs := make([]spanRec, len(spans))
	for i, sp := range spans {
		recs[i] = spanRec{Name: sp.Name, Cat: sp.Cat, TID: sp.TID,
			Start: int64(sp.Start), Dur: int64(sp.Dur),
			Trace: sp.Trace, ID: sp.ID, Parent: sp.Parent}
	}
	return statsAck{
		ShardID:        s.cfg.ID,
		NowUnixNanos:   s.clock.Now().UnixNano(),
		EpochUnixNanos: s.trace.Epoch().UnixNano(),
		Dropped:        s.trace.Dropped(),
		MetricsJSON:    string(metricsJSON),
		Threads:        s.trace.Threads(),
		Spans:          recs,
	}, nil
}

func (s *Shard) leaseRPC(m leaseMsg) (leaseAck, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clock.Now()
	ttl := time.Duration(m.TTLMS) * time.Millisecond
	if ttl <= 0 {
		ttl = s.cfg.LeaseTTL
	}
	if m.Renew {
		if s.lease.holder != m.WorkerID || s.lease.epoch != m.Epoch || !now.Before(s.lease.expiry) {
			return leaseAck{}, fmt.Errorf("%w: renew by worker %d epoch %d (lease: worker %d epoch %d)",
				errLeaseHeld, m.WorkerID, m.Epoch, s.lease.holder, s.lease.epoch)
		}
		s.lease.expiry = now.Add(ttl)
		return leaseAck{Epoch: s.lease.epoch}, nil
	}
	if s.lease.holder != 0 && s.lease.holder != m.WorkerID && now.Before(s.lease.expiry) {
		return leaseAck{}, fmt.Errorf("%w: worker %d holds the lease", errLeaseHeld, s.lease.holder)
	}
	// Every acquisition — including re-acquisition by the same worker —
	// bumps the fencing epoch: the new holder must out-fence any of its own
	// stale traffic still in flight from before the recovery.
	s.maxEpoch++
	if err := s.persistEpochLocked(); err != nil {
		s.maxEpoch--
		return leaseAck{}, err
	}
	s.lease = leaseState{holder: m.WorkerID, epoch: s.maxEpoch, expiry: now.Add(ttl)}
	return leaseAck{Epoch: s.lease.epoch}, nil
}

// --- connection handling ---------------------------------------------------

// Serve accepts connections on ln until Close. It blocks; run it via
// spawn/goroutine in callers.
func (s *Shard) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		ln.Close()
		return errDraining
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		ce := &connEntry{tid: 100 + int(s.connSeq.Add(1))}
		s.trace.SetThreadName(ce.tid, fmt.Sprintf("conn%d", ce.tid-100))
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			c.Close()
			continue
		}
		s.conns[c] = ce
		s.m.conns.Set(float64(len(s.conns)))
		s.mu.Unlock()
		s.wg.Add(1)
		spawn(s.log, "connection handler", func() {
			defer s.wg.Done()
			s.handleConn(c, ce)
		}, "shard", s.cfg.ID)
	}
}

// handleConn serves one connection: read a frame, dispatch, write the
// response. Any transport error (including an idle timeout) closes the
// connection; the client reconnects and retries.
func (s *Shard) handleConn(c net.Conn, ce *connEntry) {
	defer func() {
		if r := recover(); r != nil {
			s.log.Error("distps: connection handler panic", "shard", s.cfg.ID, "panic", fmt.Sprint(r))
		}
		c.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.m.conns.Set(float64(len(s.conns)))
		s.mu.Unlock()
	}()
	br := bufio.NewReader(c)
	bw := bufio.NewWriter(c)
	for {
		// Socket deadlines are kernel wall time by nature; the shard's
		// obs.Clock drives only lease and liveness decisions.
		//elrec:wallclock socket idle deadline is enforced by the kernel against wall time
		c.SetReadDeadline(time.Now().Add(idleTimeout))
		f, err := readFrame(br, defaultMaxPayload)
		if err != nil {
			if !errors.Is(err, io.EOF) {
				s.log.Debug("distps: read frame", "shard", s.cfg.ID, "err", err)
			}
			return
		}
		s.m.bytesIn.Add(int64(headerSize + len(f.Payload)))
		ce.busy.Store(true)
		rtype, payload := s.dispatch(f, ce.tid)
		// The response echoes the request's trace context so the client can
		// associate it without extra bookkeeping.
		werr := writeFrame(bw, frame{Type: rtype, ReqID: f.ReqID, Trace: f.Trace, Span: f.Span, Payload: payload})
		if werr == nil {
			werr = bw.Flush()
		}
		s.m.bytesOut.Add(int64(headerSize + len(payload)))
		ce.busy.Store(false)
		if werr != nil {
			return
		}
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if draining {
			return // graceful drain: the in-flight request was answered
		}
	}
}

// dispatch serves one request through its rpcs row, mapping handler errors
// to msgError responses; a type with no row is refused. Every request runs
// under a handle:<name> span linked to the caller's trace context from the
// frame header, and its service time lands in the per-type
// distps_srv_<name>_ns histogram.
func (s *Shard) dispatch(f frame, tid int) (uint8, []byte) {
	s.m.requests.Inc()
	s.m.inflight.Set(float64(s.inflight.Add(1)))
	sp := s.trace.BeginChild("handle:"+msgName(f.Type), "rpc", tid,
		obs.TraceContext{Trace: f.Trace, Span: f.Span})
	var payload []byte
	var err error
	if row, ok := lookup(f.Type); ok {
		start := s.clock.Now()
		payload, err = row.serve(s, f.Payload)
		s.m.srvNS[f.Type].Observe(float64(s.clock.Now().Sub(start)))
	} else {
		err = fmt.Errorf("%w: unexpected message %s", errBadRequest, msgName(f.Type))
	}
	sp.End()
	s.m.inflight.Set(float64(s.inflight.Add(-1)))
	if err != nil {
		s.m.errors.Inc()
		return msgError, errMsg{Code: codeFor(err), Msg: err.Error()}.encode()
	}
	return ackFor(f.Type), payload
}

// Close drains the shard: new requests are rejected with errDraining, the
// listener stops, in-flight requests get DrainTimeout to finish (idle
// connections close immediately), then everything is force-closed. Safe to
// call more than once.
func (s *Shard) Close() error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.draining = true
	s.m.draining.Set(1)
	ln := s.ln
	idle := make([]net.Conn, 0, len(s.conns))
	for c, ce := range s.conns {
		if !ce.busy.Load() {
			idle = append(idle, c)
		}
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range idle {
		c.Close()
	}
	done := make(chan struct{})
	spawn(s.log, "drain waiter", func() {
		defer close(done)
		s.wg.Wait()
	}, "shard", s.cfg.ID)
	select {
	case <-done:
	case <-time.After(s.cfg.DrainTimeout):
		s.mu.Lock()
		for c := range s.conns {
			//elrec:lockorder net.Conn.Close does not block
			c.Close()
		}
		s.mu.Unlock()
		<-done
	}
	return nil
}
