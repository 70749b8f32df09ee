// Distributed: the full parameter-server cluster in one process — two PS
// shards on loopback TCP holding the consistent-hash-sharded overflow
// tables, and a trainer worker driving them through the batched
// gather/push pipeline with coordinated checkpoints. Halfway through, one
// shard is killed and restarted from its durable state; the worker's
// recovery loop fences a new lease epoch, rolls the cluster back to the
// last committed checkpoint, and resumes. The punchline is the EL-Rec
// fault-tolerance contract: the recovered run's final parameters are
// bit-identical to a single-process run that never saw a failure.
//
// The same protocol runs across real machines via the elrec-ps and
// elrec-worker binaries; see the README quickstart.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/distps"
	"repro/internal/obs"
	"repro/internal/ps"
	"repro/internal/tensor"
)

const (
	steps = 200
	batch = 64
	every = 50 // coordinated checkpoint interval
)

func main() {
	sc, err := distps.NewScenario(core.RunSpec{Dataset: "kaggle", DatasetScale: 0.0005,
		Dim: 8, Rank: 4, TTThreshold: 2000, LR: 0.5, Steps: steps, Batch: batch}, 4)
	if err != nil {
		log.Fatal(err)
	}
	src, err := data.New(sc.Spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scenario: %d tables, %d sharded to the parameter server, %d TT-compressed on device\n",
		len(sc.Spec.TableRows), len(sc.HostSpecs()),
		len(sc.Spec.TableRows)-len(sc.HostSpecs()))

	// Boot a two-shard cluster on loopback; each shard's checkpoints and
	// fencing epoch live in its own durable directory.
	work, err := os.MkdirTemp("", "elrec-distributed")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(work)
	dirs := []string{filepath.Join(work, "shard0"), filepath.Join(work, "shard1")}
	shards := make([]*distps.Shard, 2)
	addrs := make([]string, 2)
	for i := range shards {
		shards[i], addrs[i] = boot(sc, i, dirs[i], "127.0.0.1:0")
	}
	fmt.Printf("shards up: %v\n", addrs)

	// The worker: coordinated checkpoints every 50 steps, and a hook that
	// SIGKILLs (well, Close()s) shard 1 right after the version-100
	// checkpoint commits — the most awkward moment, with the cluster ahead
	// of the worker's local state file.
	killed := false
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(nil) // span-id base 0: the worker's id space
	w, err := distps.NewWorker(distps.WorkerConfig{
		ID: 1, Shards: addrs, Scenario: sc,
		Metrics: reg, Trace: tracer,
		CheckpointPath:  filepath.Join(work, "worker.ckpt"),
		CheckpointEvery: every,
		AfterCheckpoint: func(v int64) {
			if v != 2*every || killed {
				return
			}
			killed = true
			fmt.Printf("version %d committed — killing shard 1 and restarting it from %s\n", v, dirs[1])
			shards[1].Close()
			shards[1], _ = boot(sc, 1, dirs[1], addrs[1])
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer w.Close()

	res, err := w.Run(context.Background(), src, steps, batch)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("distributed run done: %d iterations trained (%d net), %d recovery\n",
		res.Completed, steps, res.Recoveries)
	distHash := hashWorker(sc, w) // gather the final rows back before the shards go away

	// Pull every shard's spans over the msgStats RPC and write one merged
	// Chrome trace — worker pid 1, shards pids 2 and 3, shard timelines
	// offset-corrected onto the worker's clock — then verify the
	// cross-process links survived the wire.
	tracePath := filepath.Join(os.TempDir(), "elrec-cluster-trace.json")
	tf, err := os.Create(tracePath)
	if err != nil {
		log.Fatal(err)
	}
	if err := distps.WriteClusterTrace(context.Background(), tf, w.Client(), tracer,
		tracer.Epoch().UnixNano()); err != nil {
		log.Fatal(err)
	}
	if err := tf.Close(); err != nil {
		log.Fatal(err)
	}
	verifyClusterTrace(tracePath)
	fmt.Printf("cluster trace: %s (open in ui.perfetto.dev)\n", tracePath)

	for _, s := range shards {
		s.Close()
	}

	// The oracle: the identical scenario, host tables in local memory.
	locs, err := sc.ReferenceLocs()
	if err != nil {
		log.Fatal(err)
	}
	ref, err := ps.NewPipeline(sc.PipelineConfig(), locs)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := ref.Train(context.Background(), src, 0, steps, batch); err != nil {
		log.Fatal(err)
	}

	refHash := hashReference(sc, ref)
	fmt.Printf("distributed final state: %016x\n", distHash)
	fmt.Printf("reference final state:   %016x\n", refHash)
	if distHash != refHash {
		log.Fatal("recovered run diverged from the single-process reference")
	}
	fmt.Println("bit-identical: the kill, the rollback and the replay left no trace")
}

func boot(sc distps.Scenario, id int, dir, addr string) (*distps.Shard, string) {
	cfg := sc.ShardConfig(id, 2, dir)
	cfg.Metrics = obs.NewRegistry()
	// Disjoint per-shard span-id bases keep parent links unambiguous when
	// the worker merges all three processes' spans into one trace.
	cfg.Trace = obs.NewTracer(nil)
	cfg.Trace.SetSpanIDBase(uint64(id+1) << 48)
	s, err := distps.NewShard(cfg)
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
	go s.Serve(ln)
	return s, ln.Addr().String()
}

func hashWorker(sc distps.Scenario, w *distps.Worker) uint64 {
	specs := sc.HostSpecs()
	values := make([]*tensor.Matrix, len(specs))
	for h, spec := range specs {
		m, err := distps.GatherFullTable(w.Client().Store(context.Background(), spec), spec)
		if err != nil {
			log.Fatal(err)
		}
		values[h] = m
	}
	hash, err := distps.HashState(w.Pipeline(), specs, values)
	if err != nil {
		log.Fatal(err)
	}
	return hash
}

func hashReference(sc distps.Scenario, p *ps.Pipeline) uint64 {
	specs := sc.HostSpecs()
	values := make([]*tensor.Matrix, len(specs))
	for h := range specs {
		values[h] = p.HostBag(h).Weights
	}
	hash, err := distps.HashState(p, specs, values)
	if err != nil {
		log.Fatal(err)
	}
	return hash
}

// traceEvent mirrors the Chrome trace-event fields the verification needs.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	PID  int            `json:"pid"`
	ID   uint64         `json:"id"`
	Args map[string]any `json:"args"`
}

// verifyClusterTrace asserts the tentpole contract on the merged trace: a
// worker-side gather span and a shard-side handle:gather span share a
// trace id, the handler's parent is the gather span, and a flow event pair
// (ph s/f) draws the arrow between them.
func verifyClusterTrace(path string) {
	b, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		log.Fatalf("cluster trace is not valid JSON: %v", err)
	}
	// Worker-side gather spans, keyed by span id, with their trace id.
	gatherTrace := map[string]string{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.PID == 1 && ev.Name == "gather" {
			span, _ := ev.Args["span"].(string)
			trace, _ := ev.Args["trace"].(string)
			gatherTrace[span] = trace
		}
	}
	linked := false
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.PID == 1 || ev.Name != "handle:gather" {
			continue
		}
		parent, _ := ev.Args["parent"].(string)
		trace, _ := ev.Args["trace"].(string)
		if want, ok := gatherTrace[parent]; ok && want == trace {
			linked = true
			break
		}
	}
	if !linked {
		log.Fatal("no shard-side handle:gather span links under a worker-side gather span")
	}
	flowStarts := map[uint64]bool{}
	flowPaired := false
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "s" {
			flowStarts[ev.ID] = true
		}
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "f" && flowStarts[ev.ID] {
			flowPaired = true
			break
		}
	}
	if !flowPaired {
		log.Fatal("no paired flow events (ph s/f) in the merged trace")
	}
	fmt.Println("trace verified: worker gather and shard handle:gather share a trace id and a flow arrow")
}
