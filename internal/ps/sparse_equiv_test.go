package ps

import (
	"testing"

	"repro/internal/data"
	"repro/internal/metrics"
)

// sparseSpec stresses the embedding cache: sparse large tables mean many
// evictions between reuses.
func sparseSpec() data.Spec {
	return data.Spec{
		Name: "ps-sparse", NumDense: 3, TableRows: []int{4000, 2500},
		ZipfS: 1.2, ZipfV: 2, GroupSize: 16, ActiveGroups: 4, Locality: 0.8,
		Samples: 1 << 20, Seed: 77,
	}
}

// TestPipelineEquivalenceSparseTables checks exact equivalence of every
// schedule the pipeline supports: sequential vs pipelined, with and without
// lookahead planning, at several window sizes. Lookahead changes WHERE a
// batch's rows come from (host gather vs pinned cache entries) but never
// their values, so weights, MLP params and the loss curve must be
// bit-identical across all variants.
func TestPipelineEquivalenceSparseTables(t *testing.T) {
	spec := sparseSpec()
	d, _ := data.New(spec)
	run := func(depth, lookahead int) (*Pipeline, *metrics.LossCurve) {
		p, err := NewPipeline(Config{
			Model: psModelCfg(), QueueDepth: depth, Seed: 4, Lookahead: lookahead,
		}, allHostLocs(spec))
		if err != nil {
			t.Fatal(err)
		}
		return p, mustTrain(t, p, d, 0, 200, 32)
	}
	ref, refCurve := run(1, 0)

	cases := []struct {
		name             string
		depth, lookahead int
	}{
		{"pipelined", 4, 0},
		{"seq+lookahead", 1, 8},
		{"pipelined+lookahead", 4, 8},
		{"pipelined+short-window", 4, 3},
		{"pipelined+window-beyond-depth", 2, 16},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, curve := run(tc.depth, tc.lookahead)
			t.Logf("stats: %+v", p.Stats())
			for h := 0; h < len(ref.hostBags); h++ {
				if diff := ref.HostBag(h).Weights.MaxAbsDiff(p.HostBag(h).Weights); diff != 0 {
					t.Fatalf("host table %d differs by %v", h, diff)
				}
			}
			sp, pp := ref.Model().MLPParams(), p.Model().MLPParams()
			for i := range sp {
				if diff := sp[i].Value.MaxAbsDiff(pp[i].Value); diff != 0 {
					t.Fatalf("MLP param %d differs by %v", i, diff)
				}
			}
			if len(curve.Losses) != len(refCurve.Losses) {
				t.Fatalf("loss curve length %d vs %d", len(curve.Losses), len(refCurve.Losses))
			}
			for i := range curve.Losses {
				if curve.Losses[i] != refCurve.Losses[i] {
					t.Fatalf("loss at step %d: %v vs %v", i, curve.Losses[i], refCurve.Losses[i])
				}
			}
		})
	}
}

// TestPipelineLookaheadStats: with lookahead on, the plan must dedup gathers
// across batches — fewer bytes gathered, rows served from the pinned working
// set — and the lookahead instruments must move. The hit counters are
// asserted on the sequential schedule, where they are exact: every push is
// applied before the next gather, so without a plan the cache never holds
// bits the gather lacks (0 hits), and with one its hits are exactly the
// pinned serves. The pipelined counters depend on how far the apply stage
// had advanced at each gather and are only logged.
func TestPipelineLookaheadStats(t *testing.T) {
	spec := sparseSpec()
	d, _ := data.New(spec)
	run := func(depth, lookahead int) Stats {
		p, err := NewPipeline(Config{
			Model: psModelCfg(), QueueDepth: depth, Seed: 4, Lookahead: lookahead,
		}, allHostLocs(spec))
		if err != nil {
			t.Fatal(err)
		}
		mustTrain(t, p, d, 0, 200, 32)
		return p.Stats()
	}
	base := run(4, 0)
	la := run(4, 12)
	t.Logf("baseline: hit-rate=%.4f prefetched=%d", base.CacheHitRate, base.BytesPrefetched)
	t.Logf("lookahead: hit-rate=%.4f prefetched=%d pinned=%d windows=%d",
		la.CacheHitRate, la.BytesPrefetched, la.LookaheadPinnedRows, la.LookaheadWindows)
	if la.LookaheadWindows == 0 || la.LookaheadPinnedRows == 0 {
		t.Fatalf("lookahead instruments did not move: %+v", la)
	}
	if base.LookaheadWindows != 0 || base.LookaheadPinnedRows != 0 {
		t.Fatalf("baseline run counted lookahead activity: %+v", base)
	}
	if la.BytesPrefetched >= base.BytesPrefetched {
		t.Fatalf("lookahead gathered %d bytes, baseline %d — dedup saved nothing",
			la.BytesPrefetched, base.BytesPrefetched)
	}
	seqBase, seqLA := run(1, 0), run(1, 12)
	if seqBase.CacheHits != 0 {
		t.Fatalf("sequential unplanned run scored %d hits; nothing is ever in flight at a gather", seqBase.CacheHits)
	}
	if seqLA.CacheHits == 0 || seqLA.CacheHits != seqLA.LookaheadPinnedRows {
		t.Fatalf("sequential lookahead run scored %d hits for %d pinned serves", seqLA.CacheHits, seqLA.LookaheadPinnedRows)
	}
}
