package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/data"
	"repro/internal/dlrm"
	"repro/internal/tt"
)

func TestRunSpecValidate(t *testing.T) {
	for _, c := range []struct {
		name   string
		mutate func(*RunSpec)
		err    string // "" accepts
	}{
		{"default", func(*RunSpec) {}, ""},
		{"uncompressed", func(s *RunSpec) { s.TTThreshold = -1 }, ""},
		{"no steps", func(s *RunSpec) { s.Steps = 0 }, ""},
		{"unknown dataset", func(s *RunSpec) { s.Dataset = "criteo" }, `unknown dataset "criteo"`},
		{"zero scale", func(s *RunSpec) { s.DatasetScale = 0 }, "-dataset-scale 0:"},
		{"negative scale", func(s *RunSpec) { s.DatasetScale = -1 }, "-dataset-scale -1:"},
		{"NaN scale", func(s *RunSpec) { s.DatasetScale = math.NaN() }, "-dataset-scale NaN:"},
		{"infinite scale", func(s *RunSpec) { s.DatasetScale = math.Inf(1) }, "-dataset-scale +Inf:"},
		{"zero dim", func(s *RunSpec) { s.Dim = 0 }, "-dim 0:"},
		{"zero rank", func(s *RunSpec) { s.Rank = 0 }, "-rank 0:"},
		{"zero lr", func(s *RunSpec) { s.LR = 0 }, "-lr 0:"},
		{"negative lr", func(s *RunSpec) { s.LR = -0.5 }, "-lr -0.5:"},
		{"NaN lr", func(s *RunSpec) { s.LR = math.NaN() }, "-lr NaN:"},
		{"infinite lr", func(s *RunSpec) { s.LR = math.Inf(1) }, "-lr +Inf:"},
		{"negative steps", func(s *RunSpec) { s.Steps = -1 }, "-steps -1:"},
		{"zero batch", func(s *RunSpec) { s.Batch = 0 }, "-batch 0:"},
	} {
		s := DefaultRunSpec()
		c.mutate(&s)
		d, err := s.Validate()
		switch {
		case c.err == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.err == "" && d.Name != s.Dataset:
			t.Errorf("%s: dataset %q, want %q", c.name, d.Name, s.Dataset)
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("%s: err %v, want one containing %q", c.name, err, c.err)
		}
		if item := s.ItemFeature(); (c.err != "") != (item == -1) {
			t.Errorf("%s: ItemFeature %d", c.name, item)
		}
	}
}

func TestRunSpecFlagsRoundTripThroughJSON(t *testing.T) {
	base := RunSpec{Dataset: "avazu", DatasetScale: 0.25, Dim: 4, Rank: 2, TTThreshold: 7, LR: 0.125, Steps: 3, Batch: 5}
	s := base
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	s.RegisterFlags(fs)
	if err := fs.Parse(nil); err != nil || s != base {
		t.Fatalf("empty command line: %+v, %v; want the receiver's values %+v", s, err, base)
	}
	args := strings.Fields("-dataset kaggle -dataset-scale 0.0005 -dim 8 -rank 4 -tt-threshold -1 -lr 0.5 -steps 400 -batch 32")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	want := `{"dataset":"kaggle","dataset_scale":0.0005,"dim":8,"rank":4,"tt_threshold":-1,"lr":0.5,"steps":400,"batch":32}`
	if got := s.JSON(); got != want {
		t.Fatalf("JSON %s\nwant %s", got, want)
	}
	var back RunSpec
	if err := json.Unmarshal([]byte(s.JSON()), &back); err != nil || back != s {
		t.Fatalf("round trip: %+v, %v; want %+v", back, err, s)
	}
}

// TestRunSpecModelMatchesExplicitSeeds pins Model's skeleton to the explicit
// construction the repository benchmark uses to load elrec-serve's
// checkpoints: tables seeded with the dataset's seed, towers one past it.
func TestRunSpecModelMatchesExplicitSeeds(t *testing.T) {
	s := RunSpec{Dataset: "terabyte", DatasetScale: 0.001, Dim: 32, Rank: 16, TTThreshold: 10_000, LR: 1.0, Steps: 2, Batch: 256}
	m, err := s.Model()
	if err != nil {
		t.Fatal(err)
	}
	spec := data.TerabyteSpec(s.DatasetScale)
	tables, compressed, err := dlrm.BuildTables(spec.TableRows, dlrm.TableSpec{
		Dim: 32, Rank: 16, TTThreshold: 10_000, Opts: tt.EffOptions(), Seed: spec.Seed,
	})
	if err != nil || compressed == 0 {
		t.Fatalf("explicit tables: %d compressed, %v", compressed, err)
	}
	cfg := dlrm.DefaultConfig(spec.NumDense, 32)
	cfg.LR = 1.0
	cfg.Seed = spec.Seed + 1
	ref, err := dlrm.NewModel(cfg, tables)
	if err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := checkpoint.SaveModel(&got, m); err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.SaveModel(&want, ref); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("Model's checkpoint bytes differ from the explicit construction's")
	}
	if m.Cfg.LR != cfg.LR || m.Cfg.Seed != cfg.Seed {
		t.Fatalf("towers lr %v seed %d, want %v %d", m.Cfg.LR, m.Cfg.Seed, cfg.LR, cfg.Seed)
	}
	if _, err := (RunSpec{Dataset: "terabyte"}).Model(); err == nil {
		t.Fatal("Model built an invalid spec")
	}
}

func TestRunSpecItemFeatureIsTheLargestTable(t *testing.T) {
	for _, c := range []struct {
		dataset string
		scale   float64
		want    int
	}{
		{"terabyte", 0.002, 0},
		{"kaggle", 0.001, 2},
		{"avazu", 0.01, 10},
		{"kaggle", 1e-9, 0}, // every table clamps to 4 rows: the first wins
	} {
		s := DefaultRunSpec()
		s.Dataset, s.DatasetScale = c.dataset, c.scale
		if got := s.ItemFeature(); got != c.want {
			t.Errorf("%s at %g: item feature %d, want %d", c.dataset, c.scale, got, c.want)
		}
	}
}
