package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"

	"repro/internal/data"
	"repro/internal/dlrm"
	"repro/internal/tt"
)

// RunSpec names a run the way every binary's command line does. It is the
// one place those flags are defined and validated, and the one place that
// builds the untrained model they describe.
type RunSpec struct {
	Dataset      string  `json:"dataset"`
	DatasetScale float64 `json:"dataset_scale"`
	Dim          int     `json:"dim"`
	Rank         int     `json:"rank"`
	TTThreshold  int     `json:"tt_threshold"` // min rows for a TT table; negative compresses nothing
	LR           float64 `json:"lr"`
	Steps        int     `json:"steps"`
	Batch        int     `json:"batch"`
}

// DefaultRunSpec is elrec-serve's run; the other binaries change the fields
// whose defaults differ before registering the flags.
func DefaultRunSpec() RunSpec {
	return RunSpec{Dataset: "terabyte", DatasetScale: 0.002, Dim: 16, Rank: 8,
		TTThreshold: 10_000, LR: 1.0, Steps: 200, Batch: 256}
}

// RegisterFlags defines the spec's flags on fs, with the receiver's values
// as their defaults; parsing fs writes into the receiver.
func (s *RunSpec) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&s.Dataset, "dataset", s.Dataset, "dataset preset: avazu, kaggle or terabyte")
	fs.Float64Var(&s.DatasetScale, "dataset-scale", s.DatasetScale, "dataset cardinality multiplier")
	fs.IntVar(&s.Dim, "dim", s.Dim, "embedding dimension")
	fs.IntVar(&s.Rank, "rank", s.Rank, "TT rank")
	fs.IntVar(&s.TTThreshold, "tt-threshold", s.TTThreshold, "min rows for TT compression (-1 disables compression)")
	fs.Float64Var(&s.LR, "lr", s.LR, "learning rate")
	fs.IntVar(&s.Steps, "steps", s.Steps, "training steps")
	fs.IntVar(&s.Batch, "batch", s.Batch, "batch size")
}

// CheckArgs refuses the words left on fs after parsing. No binary takes
// positional arguments, and flag parsing stops at the first word that is not
// a flag, so a stray word would silently drop every flag after it.
func CheckArgs(fs *flag.FlagSet) error {
	if fs.NArg() > 0 {
		return fmt.Errorf("core: positional arguments %q: every setting is a flag", fs.Args())
	}
	return nil
}

// Validate refuses a spec no run can use and returns its dataset. The scale
// must be positive: the presets clamp every table to at least 4 rows, so a
// zero or negative one would quietly build a model of 4-row tables.
func (s RunSpec) Validate() (data.Spec, error) {
	for _, c := range []struct {
		ok     bool
		flag   string
		val    any
		mustBe string
	}{
		{s.DatasetScale > 0 && !math.IsInf(s.DatasetScale, 1), "dataset-scale", s.DatasetScale, "positive and finite"},
		{s.Dim >= 1, "dim", s.Dim, "at least 1"},
		{s.Rank >= 1, "rank", s.Rank, "at least 1"},
		{s.LR > 0 && !math.IsInf(s.LR, 1), "lr", s.LR, "positive and finite"},
		{s.Steps >= 0, "steps", s.Steps, "at least 0"},
		{s.Batch >= 1, "batch", s.Batch, "at least 1"},
	} {
		if !c.ok {
			return data.Spec{}, fmt.Errorf("core: -%s %v: must be %s", c.flag, c.val, c.mustBe)
		}
	}
	return data.SpecByName(s.Dataset, s.DatasetScale)
}

// JSON is the spec's canonical form: its fields in order, snake_case. A
// non-finite float, which Validate refuses, has none; JSON returns the
// marshalling error's text instead.
func (s RunSpec) JSON() string {
	b, err := json.Marshal(s)
	if err != nil {
		return err.Error()
	}
	return string(b)
}

// Model builds the untrained model elrec-serve trains at start-up and fills
// from every checkpoint it loads: Eff-TT tables from TTThreshold rows up,
// built by dlrm.TableSpec from the dataset's seed, and Towers' towers.
func (s RunSpec) Model() (*dlrm.Model, error) {
	d, err := s.Validate()
	if err != nil {
		return nil, err
	}
	tables, _, err := dlrm.BuildTables(d.TableRows, dlrm.TableSpec{
		Dim: s.Dim, Rank: s.Rank, TTThreshold: s.TTThreshold, Opts: tt.EffOptions(), Seed: d.Seed,
	})
	if err != nil {
		return nil, err
	}
	return dlrm.NewModel(s.Towers(d), tables)
}

// Towers is the spec's dense-tower configuration over its dataset d
// (Validate's result): dlrm.DefaultConfig at the spec's dim and LR, seeded
// one past the dataset's seed. It is the one tower rule: RunSpec.Model and
// distps.NewScenario both take it.
func (s RunSpec) Towers(d data.Spec) dlrm.Config {
	cfg := dlrm.DefaultConfig(d.NumDense, s.Dim)
	cfg.LR, cfg.Seed = float32(s.LR), d.Seed+1
	return cfg
}

// ItemFeature is the sparse feature carrying the candidate item: the
// largest table at the spec's scale, the first on a tie. It is -1 for a
// spec Validate refuses.
func (s RunSpec) ItemFeature() int {
	d, err := s.Validate()
	if err != nil {
		return -1
	}
	best := 0
	for i, rows := range d.TableRows {
		if rows > d.TableRows[best] {
			best = i
		}
	}
	return best
}
