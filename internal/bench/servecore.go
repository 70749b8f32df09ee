package bench

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/data"
	"repro/internal/dlrm"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/served"
	"repro/internal/tensor"
	"repro/internal/tt"
)

// serveFetchRTT emulates the round-trip of a batched remote feature fetch
// (the DeepRecSys-style hydration stage): one stall per micro-batch,
// overlappable across replicas because it blocks without burning CPU.
const serveFetchRTT = 5 * time.Millisecond

// serveCore measures ranking-stage serving throughput through the replica
// pool at 1, 4 and 8 replicas under a fixed closed-loop client population,
// against the single-goroutine serial Ranker baseline. Two workload profiles
// at 8 candidates per request: "cpu" is pure local scoring — on a single-CPU
// host it is compute-bound, so replicas buy isolation, not throughput — and
// "fetch5ms" adds a 5 ms batched remote-feature hydration stall per
// micro-batch, the regime replica pools exist for: stalls overlap across
// replicas while other replicas score, so requests/sec scales with the
// replica count until the CPU saturates. The "cpu-128c" rows repeat the cpu
// profile's serial and one-replica runs at 128 candidates per request, where
// the model forward rather than the per-request overhead sets the rate. Not a
// paper artifact — it records the serving front end's scaling trajectory
// across PRs, the way ttcore does for the compute core.
func serveCore(sc Scale) *Result {
	spec := data.TerabyteSpec(sc.DatasetScale)
	d, err := data.New(spec)
	if err != nil {
		panic(err)
	}
	tables, _, err := dlrm.BuildTables(spec.TableRows, dlrm.TableSpec{
		Dim: sc.EmbDim, Rank: sc.Rank, TTThreshold: sc.TTThresholdRows,
		Opts: tt.EffOptions(), Seed: 21,
	})
	if err != nil {
		panic(err)
	}
	model, err := dlrm.NewModel(modelConfig(spec, sc), tables)
	if err != nil {
		panic(err)
	}
	for it := 0; it < 20; it++ {
		model.TrainStep(d.Batch(it, sc.Batch))
	}

	item := 0
	for i, rows := range spec.TableRows {
		if rows > spec.TableRows[item] {
			item = i
		}
	}

	const clients = 32
	const candidatesPerReq, candidatesLarge = 8, 128
	perClient := 8 * sc.Steps
	totalReqs := clients * perClient
	// The serial baseline pays the full stall on every request; a quarter of
	// the traffic is plenty to measure its (much lower) steady-state rate.
	serialReqs := totalReqs / 4

	// Per-client fixed workloads: a valid context plus a candidate set of
	// either size.
	ctxs := make([]serve.Context, clients)
	small, large := make([][]int, clients), make([][]int, clients)
	for c := 0; c < clients; c++ {
		dense := make([]float32, spec.NumDense)
		for j := range dense {
			dense[j] = float32((c*7+j*3)%11) * 0.1
		}
		sparse := make([]int, len(spec.TableRows))
		for t, rows := range spec.TableRows {
			sparse[t] = (c*31 + t*13) % rows
		}
		ctxs[c] = serve.Context{Dense: dense, Sparse: sparse}
		cand := make([]int, candidatesLarge)
		for i := range cand {
			cand[i] = (c*17 + i*97) % spec.TableRows[item]
		}
		small[c], large[c] = cand[:candidatesPerReq], cand
	}

	stall := func(batch []served.HydrateRequest) error {
		time.Sleep(serveFetchRTT)
		return nil
	}

	// runSerial drives the single-goroutine Ranker; with hydration the stall
	// lands on every request, since there is no coalescing to amortize it.
	runSerial := func(hydrated bool, cands [][]int) float64 {
		ranker, err := serve.NewRanker(model, item, sc.Batch)
		if err != nil {
			panic(err)
		}
		dur := timeIt(func() {
			for i := 0; i < serialReqs; i++ {
				c := i % clients
				if hydrated {
					time.Sleep(serveFetchRTT)
				}
				if _, err := ranker.Score(ctxs[c], cands[c]); err != nil {
					panic(err)
				}
			}
		})
		return float64(serialReqs) / dur.Seconds()
	}

	// runPool drives the replica pool closed-loop and returns requests/sec
	// plus the mean coalesced micro-batch size.
	runPool := func(replicas int, hydrate func([]served.HydrateRequest) error, cands [][]int) (float64, float64) {
		reg := obs.NewRegistry()
		pool, err := served.New(model, item, sc.Batch, served.Options{
			Replicas: replicas, QueueDepth: 4 * clients, MaxCoalesce: 4,
			Hydrate: hydrate, Metrics: reg,
		})
		if err != nil {
			panic(err)
		}
		dur := timeIt(func() {
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := 0; i < perClient; i++ {
						if _, err := pool.Score(ctxs[c], cands[c]); err != nil {
							panic(err)
						}
					}
				}(c)
			}
			wg.Wait()
		})
		pool.Close()
		coalesce := reg.Snapshot().Histograms["serve_coalesced_batch_size"]
		return float64(totalReqs) / dur.Seconds(), coalesce.Mean
	}

	r := &Result{
		ID:     "servecore",
		Title:  "serving throughput vs replica count",
		Header: []string{"config", "replicas", "clients", "req/s", "speedup", "avg coalesce"},
	}
	profiles := []struct {
		name     string
		hydrate  func([]served.HydrateRequest) error
		cands    [][]int
		replicas []int
	}{
		{"cpu", nil, small, []int{1, 4, 8}},
		{"fetch5ms", stall, small, []int{1, 4, 8}},
		{"cpu-128c", nil, large, []int{1}},
	}
	for _, prof := range profiles {
		rate := runSerial(prof.hydrate != nil, prof.cands)
		r.AddRow(prof.name+"/serial", "1", "1", fmt.Sprintf("%.0f", rate), "", "")
		var baseRate float64
		for _, replicas := range prof.replicas {
			rate, coalesce := runPool(replicas, prof.hydrate, prof.cands)
			if replicas == 1 {
				baseRate = rate
			}
			r.AddRow(fmt.Sprintf("%s/pool-%dr", prof.name, replicas),
				fmt.Sprintf("%d", replicas),
				fmt.Sprintf("%d", clients),
				fmt.Sprintf("%.0f", rate),
				fmt.Sprintf("%.2fx", rate/baseRate),
				fmt.Sprintf("%.1f", coalesce))
		}
	}

	r.AddNote("%d requests of %d candidates each (cpu-128c: %d), %d closed-loop clients; dataset %s, dim %d, rank %d, %s kernels",
		totalReqs, candidatesPerReq, candidatesLarge, clients, spec.Name, sc.EmbDim, sc.Rank, tensor.KernelName())
	r.AddNote("speedup is relative to the 1-replica pool within each profile; serial is the no-pool baseline")
	r.AddNote("fetch5ms adds a %v batched remote-feature hydration stall per micro-batch (served.Options.Hydrate); "+
		"cpu is pure local scoring and compute-bound on a single-CPU host", serveFetchRTT)
	return r
}
