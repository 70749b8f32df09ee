package ps

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/faults"
	"repro/internal/obs"
)

// TestStatsRegistryEquivalence runs a pipelined train under a fixed
// fault-injection schedule with a registry attached and checks that the
// Stats() struct and the registry snapshot are two views of the same
// instruments — field by field, including the fault/retry counters.
func TestStatsRegistryEquivalence(t *testing.T) {
	spec := psSpec()
	d, err := data.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	inj := faults.NewSeeded(faults.Config{Seed: 99,
		GatherFailProb: 0.2, ApplyFailProb: 0.2,
		StallProb: 0.1, StallFor: 100 * time.Microsecond})
	p, err := NewPipeline(Config{Model: psModelCfg(), QueueDepth: 4, Seed: 4, Lookahead: 4,
		Faults: inj, Retry: fastRetry(), Metrics: reg}, allHostLocs(spec))
	if err != nil {
		t.Fatal(err)
	}
	mustTrain(t, p, d, 0, 50, 64)

	st := p.Stats()
	if st.InjectedFaults == 0 || st.Retries == 0 || st.StallTime == 0 {
		t.Fatalf("fault schedule produced no fault activity, test has no power: %+v", st)
	}
	if st.CacheHits == 0 || st.CacheMisses == 0 {
		t.Fatalf("cache saw no traffic, test has no power: %+v", st)
	}
	if st.LookaheadWindows == 0 || st.LookaheadPinnedRows == 0 || st.PrefetchWait == 0 {
		t.Fatalf("lookahead instruments saw no traffic, test has no power: %+v", st)
	}

	snap := reg.Snapshot()
	want := map[string]int64{
		"ps_steps":            int64(st.Steps),
		"ps_bytes_prefetched": st.BytesPrefetched,
		"ps_bytes_pushed":     st.BytesPushed,
		"ps_cache_syncs":      st.CacheSyncs,
		"ps_cache_hits":       st.CacheHits,
		"ps_cache_misses":     st.CacheMisses,
		"ps_cache_evictions":  st.CacheEvictions,
		"ps_gather_ns":        int64(st.GatherTime),
		"ps_apply_ns":         int64(st.ApplyTime),
		"ps_train_ns":         int64(st.TrainTime),
		"ps_adapter_ns":       int64(st.AdapterTime),
		"ps_injected_faults":  st.InjectedFaults,
		"ps_retries":          st.Retries,
		"ps_backoff_ns":       int64(st.BackoffTime),
		"ps_stall_ns":         int64(st.StallTime),
		"ps_checkpoints":      st.Checkpoints,

		"ps_lookahead_windows":     st.LookaheadWindows,
		"ps_lookahead_pinned_rows": st.LookaheadPinnedRows,
		"ps_prefetch_wait_ns":      int64(st.PrefetchWait),
	}
	for name, v := range want {
		if got := snap.Counter(name); got != v {
			t.Errorf("registry %s = %d, Stats() says %d", name, got, v)
		}
	}
	if got, ok := snap.Gauges["ps_cache_hit_rate"]; !ok || got != st.CacheHitRate {
		t.Errorf("registry ps_cache_hit_rate = %v (present=%v), Stats() says %v", got, ok, st.CacheHitRate)
	}
	// The histogram twins observe the readings their counters add up.
	for name, total := range map[string]time.Duration{
		"ps_gather_ns_hist": st.GatherTime,
		"ps_train_ns_hist":  st.TrainTime,
		"ps_apply_ns_hist":  st.ApplyTime,
		"ps_stall_ns_hist":  st.StallTime,
	} {
		if h := snap.Histograms[name]; h.Count == 0 || h.Sum != float64(total) {
			t.Errorf("registry %s count %d sum %v, its counter says %v", name, h.Count, h.Sum, total)
		}
	}
	if n := snap.Histograms["ps_train_ns_hist"].Count; n != int64(st.Steps) {
		t.Errorf("ps_train_ns_hist observed %d steps, Stats() says %d", n, st.Steps)
	}
	// The live-entry gauge is a level, not a count: a run may end with an
	// empty cache, so it is checked against the caches themselves.
	if got, ok := snap.Gauges["ps_cache_entries"]; !ok || got != float64(st.CacheEntries) {
		t.Errorf("registry ps_cache_entries = %v (present=%v), Stats() says %d", got, ok, st.CacheEntries)
	}
}

// TestCheckpointMetrics checks that periodic checkpoints record write
// duration and bytes through the registry.
func TestCheckpointMetrics(t *testing.T) {
	spec := psSpec()
	d, err := data.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	path := t.TempDir() + "/ps.ckpt"
	p, err := NewPipeline(Config{Model: psModelCfg(), QueueDepth: 2, Seed: 4,
		Checkpoint: CheckpointConfig{Path: path, Every: 5}, Metrics: reg}, allHostLocs(spec))
	if err != nil {
		t.Fatal(err)
	}
	mustTrain(t, p, d, 0, 10, 32)
	snap := reg.Snapshot()
	if n := snap.Counter("ps_checkpoints"); n != 2 {
		t.Fatalf("ps_checkpoints = %d want 2", n)
	}
	if snap.Counter("ps_checkpoint_bytes") == 0 || snap.Counter("ps_checkpoint_write_ns") == 0 {
		t.Fatalf("checkpoint write metrics not recorded: %+v", snap.Counters)
	}
}

// TestTraceExportShowsStageOverlap runs a pipelined train with a tracer and
// checks (a) the gather/train/apply spans land on their distinct stage
// threads, and (b) the Chrome export is valid trace-event JSON carrying
// those spans plus the thread-name metadata.
func TestTraceExportShowsStageOverlap(t *testing.T) {
	spec := psSpec()
	d, err := data.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer(nil)
	p, err := NewPipeline(Config{Model: psModelCfg(), QueueDepth: 4, Seed: 4, Trace: tr},
		allHostLocs(spec))
	if err != nil {
		t.Fatal(err)
	}
	mustTrain(t, p, d, 0, 20, 32)

	tidOf := map[string]int{"gather": tidPrefetch, "train": tidWorker, "push": tidWorker, "apply": tidApply}
	seen := map[string]int{}
	for _, sp := range tr.Spans() {
		want, ok := tidOf[sp.Name]
		if !ok {
			t.Fatalf("unexpected span %q", sp.Name)
		}
		if sp.TID != want {
			t.Fatalf("span %q on tid %d want %d", sp.Name, sp.TID, want)
		}
		seen[sp.Name]++
	}
	for _, name := range []string{"gather", "train", "apply"} {
		if seen[name] != 20 {
			t.Fatalf("saw %d %q spans want 20 (spans: %v)", seen[name], name, seen)
		}
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TID  int     `json:"tid"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	phases := map[string]int{}
	threadNames := 0
	for _, ev := range doc.TraceEvents {
		phases[ev.Ph]++
		if ev.Ph == "M" && ev.Name == "thread_name" {
			threadNames++
		}
	}
	if phases["X"] == 0 {
		t.Fatal("export has no complete-span (X) events")
	}
	if threadNames != 3 {
		t.Fatalf("export has %d thread_name records want 3", threadNames)
	}
}
