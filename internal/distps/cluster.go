package distps

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/obs"
)

// Cluster view: the worker-side aggregation layer over the msgStats RPC.
// One scrape of the worker's debug endpoint answers for the whole cluster
// — merged per-shard metrics at /cluster, and a single offset-corrected
// Chrome trace spanning the worker and every shard at /cluster/trace.

// ShardView is one shard's slice of the merged cluster view. A shard that
// could not be reached still appears, with Err set, so a partially dead
// cluster produces a partial view instead of none.
type ShardView struct {
	Shard         int          `json:"shard"`
	Err           string       `json:"err,omitempty"`
	ClockOffsetNS int64        `json:"clock_offset_ns"` // shard clock − worker clock, from this scrape's Stats
	Metrics       obs.Snapshot `json:"metrics"`
	Spans         int          `json:"spans"`
	Dropped       int64        `json:"dropped"`
}

// WorkerView is the worker's own slice of the cluster view.
type WorkerView struct {
	Metrics obs.Snapshot `json:"metrics"`
	Spans   int          `json:"spans"`
	Dropped int64        `json:"dropped"`
}

// ClusterView is the merged cluster snapshot served at /cluster.
type ClusterView struct {
	Worker WorkerView  `json:"worker"`
	Shards []ShardView `json:"shards"`
}

// clusterStats fetches every shard's observability snapshot over msgStats
// and merges it with the worker's own registry and tracer. Per-shard
// failures are recorded in the view, not returned: the cluster view must
// stay useful exactly when part of the cluster is down.
func clusterStats(ctx context.Context, c *Client, reg *obs.Registry, tr *obs.Tracer) ClusterView {
	view := ClusterView{
		Worker: WorkerView{Metrics: reg.Snapshot(), Spans: len(tr.Spans()), Dropped: tr.Dropped()},
	}
	for i := range c.conns {
		sv := ShardView{Shard: i}
		st, err := c.stats(ctx, i, 0)
		if err != nil {
			sv.Err = err.Error()
		} else {
			sv.ClockOffsetNS = st.ClockOffsetNS
			sv.Metrics = st.Metrics
			sv.Spans = len(st.Spans)
			sv.Dropped = st.Dropped
		}
		view.Shards = append(view.Shards, sv)
	}
	return view
}

// writeClusterTrace fetches every shard's recent spans and writes one
// merged Chrome trace: the worker's own timeline (tr.Process) as pid 1,
// shard i as pid 2+i, with each shard's epoch shifted by the clock offset
// estimated from that same Stats exchange, so all timelines sit on the
// worker's clock. Unreachable shards are skipped; the worker's timeline
// always appears.
func writeClusterTrace(ctx context.Context, w io.Writer, c *Client, tr *obs.Tracer) error {
	procs := []obs.ProcessTrace{tr.Process("worker", 1)}
	for i := range c.conns {
		st, err := c.stats(ctx, i, 0)
		if err != nil {
			c.log.Warn("distps: cluster trace: shard unreachable", "shard", i, "err", err)
			continue
		}
		procs = append(procs, obs.ProcessTrace{
			Name: fmt.Sprintf("shard%d", st.ShardID),
			PID:  2 + i,
			// Subtracting the offset (shard − worker) moves the shard's
			// epoch onto the worker's clock.
			EpochNS: st.EpochUnixNanos - st.ClockOffsetNS,
			Spans:   st.Spans,
			Threads: st.Threads,
		})
	}
	return obs.WriteMergedChromeTrace(w, procs)
}

// ClusterHandlers returns the worker's cluster-view debug routes, for
// mounting via obs.Serve:
//
//	/cluster        merged per-shard metrics + worker metrics (JSON)
//	/cluster/trace  offset-corrected merged Chrome trace (JSON)
//
// The scrape timeout bounds how long a dead shard can stall a request.
//
//elrec:rootctx handler factory: blocking happens inside the returned handlers, each bounded by r.Context() plus scrapeTimeout
func ClusterHandlers(w *Worker, reg *obs.Registry, tr *obs.Tracer, scrapeTimeout time.Duration) map[string]http.HandlerFunc {
	if scrapeTimeout <= 0 {
		scrapeTimeout = 5 * time.Second
	}
	c := w.Client()
	return map[string]http.HandlerFunc{
		"/cluster": func(rw http.ResponseWriter, r *http.Request) {
			ctx, cancel := context.WithTimeout(r.Context(), scrapeTimeout)
			defer cancel()
			rw.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(rw)
			enc.SetIndent("", "  ")
			// The connection is gone on encode failure; nothing to report to.
			_ = enc.Encode(clusterStats(ctx, c, reg, tr))
		},
		"/cluster/trace": func(rw http.ResponseWriter, r *http.Request) {
			ctx, cancel := context.WithTimeout(r.Context(), scrapeTimeout)
			defer cancel()
			rw.Header().Set("Content-Type", "application/json")
			rw.Header().Set("Content-Disposition", `attachment; filename="elrec-cluster-trace.json"`)
			_ = writeClusterTrace(ctx, rw, c, tr)
		},
	}
}
