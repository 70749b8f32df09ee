package distps

import (
	"fmt"
	"math"
	"testing"

	elrec "repro"
	"repro/internal/core"
	"repro/internal/dlrm"
	"repro/internal/embedding"
	"repro/internal/ps"
	"repro/internal/tt"
)

// tableParams is a table's kind, shape and parameters as bits: two tables
// with equal tableParams hold byte-identical parameters.
func tableParams(t *testing.T, tbl dlrm.Table) string {
	t.Helper()
	var kind string
	var data [][]float32
	switch v := tbl.(type) {
	case *tt.Table:
		kind = fmt.Sprintf("tt %+v %+v", v.Shape, v.Opts)
		for _, c := range v.Cores {
			data = append(data, c.Data)
		}
	case *embedding.Bag:
		kind = fmt.Sprintf("bag %dx%d", v.NumRows(), v.Dim())
		data = append(data, v.Weights.Data)
	default:
		t.Fatalf("unexpected table kind %T", tbl)
	}
	out := []byte(kind)
	for _, d := range data {
		for _, x := range d {
			out = fmt.Appendf(out, " %08x", math.Float32bits(x))
		}
	}
	return string(out)
}

// TestConstructionRulesAgree pins the construction rules' identities
// directly, where final_hash pins them only end to end. (a) A PS shard's
// owned rows of a host table are the same rows of the local host bag
// ps.NewPipeline builds for it. (b) Every builder of a run's tables —
// RunSpec.Model, Scenario.ReferenceLocs (device tables), a reorder-off
// core.Build at the same seed and the facade constructors at position 0 —
// gives byte-identical parameters at each position it builds.
func TestConstructionRulesAgree(t *testing.T) {
	for _, tc := range []struct {
		name      string
		threshold int
	}{
		{"mixed", 2000},  // TT tables on the device, the rest on the host
		{"all-host", -1}, // nothing compressed
		{"all-tt", 0},    // everything compressed, no host table
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := core.RunSpec{Dataset: "kaggle", DatasetScale: 0.0005, Dim: 8, Rank: 4,
				TTThreshold: tc.threshold, LR: 0.5, Steps: 1, Batch: 8}
			d, err := run.Validate()
			if err != nil {
				t.Fatal(err)
			}
			sc, err := NewScenario(run, 0)
			if err != nil {
				t.Fatal(err)
			}
			locs, err := sc.ReferenceLocs()
			if err != nil {
				t.Fatal(err)
			}

			// (a) shard rows against the pipeline's local host bags.
			pipe, err := ps.NewPipeline(sc.PipelineConfig(), locs)
			if err != nil {
				t.Fatal(err)
			}
			const shards = 3
			ring := newHashRing(shards)
			for h, spec := range sc.HostSpecs() {
				bag := pipe.HostBag(h)
				owned := 0
				for id := 0; id < shards; id++ {
					st := newShardTable(spec, sc.Model.EmbDim, sc.Seed, ring, id)
					for slot, r := range st.rows {
						got := st.data[slot*st.dim : (slot+1)*st.dim]
						for j, want := range bag.Weights.Row(r) {
							if math.Float32bits(got[j]) != math.Float32bits(want) {
								t.Fatalf("table %d row %d col %d: shard %d holds %v, the pipeline's host bag %v",
									spec.Index, r, j, id, got[j], want)
							}
						}
					}
					owned += len(st.rows)
				}
				if owned != spec.Rows {
					t.Fatalf("table %d: shards own %d rows, want %d", spec.Index, owned, spec.Rows)
				}
			}

			// (b) every builder of the run's tables, position by position.
			model, err := run.Model()
			if err != nil {
				t.Fatal(err)
			}
			cfg := core.DefaultConfig(d)
			cfg.Model = run.Towers(d)
			cfg.Rank, cfg.TTThreshold, cfg.Opts = run.Rank, run.TTThreshold, tt.EffOptions()
			cfg.Reorder, cfg.Seed = false, d.Seed
			sys, err := core.Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rows0 := d.TableRows[0]
			var facade dlrm.Table = elrec.NewEmbeddingBag(rows0, run.Dim, d.Seed)
			if tc.threshold >= 0 && rows0 >= tc.threshold {
				if facade, err = elrec.NewEffTTEmbeddingBag(rows0, run.Dim, run.Rank, d.Seed); err != nil {
					t.Fatal(err)
				}
			}
			sides := []struct {
				name   string
				tables []dlrm.Table // nil where the side builds no table
			}{
				{"Scenario.ReferenceLocs", make([]dlrm.Table, len(locs))},
				{"core.Build", make([]dlrm.Table, len(d.TableRows))},
				{"facade", []dlrm.Table{facade}},
			}
			for i, loc := range locs {
				sides[0].tables[i] = loc.Device
			}
			for i, tbl := range sys.Model().Tables {
				if sys.Placements[i] != core.PlaceHost {
					sides[1].tables[i] = tbl
				}
			}
			for i, tbl := range model.Tables {
				want := tableParams(t, tbl)
				for _, side := range sides {
					if i >= len(side.tables) || side.tables[i] == nil {
						continue
					}
					if got := tableParams(t, side.tables[i]); got != want {
						t.Errorf("table %d: %s builds other parameters than RunSpec.Model", i, side.name)
					}
				}
			}
			if model.Cfg.Seed != sc.Model.Seed || model.Cfg.LR != sc.Model.LR {
				t.Errorf("towers: RunSpec.Model seed %d lr %v, Scenario seed %d lr %v",
					model.Cfg.Seed, model.Cfg.LR, sc.Model.Seed, sc.Model.LR)
			}
		})
	}
}
