// Command elrec-bench regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	elrec-bench -exp fig11                 # one experiment
//	elrec-bench -exp fig17,fig18           # several
//	elrec-bench -exp all -scale quick      # full sweep, small
//	elrec-bench -exp fig14 -dataset-scale 0.02 -batch 4096 -rank 32
//
// Every experiment prints the same rows/series the paper reports plus notes
// recording the parameters and the paper's reference numbers. Alongside the
// stdout tables, each experiment writes a machine-readable BENCH_<id>.json
// artifact into -json-dir (host, config, rows, elapsed time, and a metrics
// snapshot of the systems the experiment built) so perf trajectories can
// accumulate across commits; an empty -json-dir disables the artifacts.
// -debug-addr serves /metrics, /trace and pprof while the sweep runs; the
// registry is reset at the start of each experiment, so the endpoint and
// the artifact both report the experiment in progress.
//
// An override of 0 keeps the -scale preset's value (-lookahead: -1). A
// negative override, -lookahead below -1, a non-finite -dataset-scale, an
// unknown -scale or -exp id or a positional argument exits 2 with an
// "invalid flags" line before any experiment runs.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// artifact is the BENCH_<id>.json schema: everything the stdout table
// shows, machine-readable, plus the scale and the instruments of the
// systems the experiment built.
type artifact struct {
	ID        string       `json:"id"`
	Title     string       `json:"title"`
	Host      hostInfo     `json:"host"`
	Scale     bench.Scale  `json:"scale"`
	Header    []string     `json:"header"`
	Rows      [][]string   `json:"rows"`
	Notes     []string     `json:"notes"`
	ElapsedMS int64        `json:"elapsed_ms"`
	Metrics   obs.Snapshot `json:"metrics"`
}

// hostInfo is what a timing in the artifact depends on besides the code:
// two artifacts are comparable only when these agree. Kernels is the tensor
// kernel family the run used ("avx512", "avx2" or "portable").
type hostInfo struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Kernels    string `json:"kernels"`
}

func readHostInfo() hostInfo {
	h := hostInfo{
		CPUModel:   "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Kernels:    tensor.KernelName(),
	}
	// Linux only; elsewhere the model stays "unknown".
	if cpuinfo, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(cpuinfo), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is elrec-bench's command line, defined on a flag set by newOptions.
// A zero override keeps the -scale preset's value, and so does -lookahead -1.
type options struct {
	exps, scale, jsonDir, debugAddr                         string
	datasetScale                                            float64
	batch, steps, dim, rank, trainSteps, workers, lookahead int
	compare                                                 bool
}

func newOptions(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.exps, "exp", "all", "comma-separated experiment ids, or 'all' (known: "+strings.Join(bench.List(), ", ")+")")
	fs.StringVar(&o.scale, "scale", "default", "base scale: quick or default")
	fs.Float64Var(&o.datasetScale, "dataset-scale", 0, "override: dataset cardinality multiplier")
	fs.IntVar(&o.batch, "batch", 0, "override: batch size")
	fs.IntVar(&o.steps, "steps", 0, "override: measured steps per configuration")
	fs.IntVar(&o.dim, "dim", 0, "override: embedding dimension")
	fs.IntVar(&o.rank, "rank", 0, "override: TT rank")
	fs.IntVar(&o.trainSteps, "train-steps", 0, "override: steps for accuracy/convergence experiments")
	fs.StringVar(&o.jsonDir, "json-dir", ".", "directory for BENCH_<id>.json artifacts ('' disables)")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "serve /metrics and pprof on this address while the sweep runs")
	fs.IntVar(&o.workers, "workers", 0, "bound host-side kernel parallelism (0 keeps GOMAXPROCS)")
	fs.BoolVar(&o.compare, "compare", false, "compare two BENCH_<id>.json artifacts: elrec-bench -compare old.json new.json")
	fs.IntVar(&o.lookahead, "lookahead", -1, "override: pipeline lookahead window for pipecache (0 and 1 plan one batch at a time, -1 keeps the scale default)")
	return o
}

// experiments returns the -exp ids, refusing one bench.List does not name.
func (o *options) experiments() ([]string, error) {
	if o.exps == "all" {
		return bench.List(), nil
	}
	ids := strings.Split(o.exps, ",")
	for i, id := range ids {
		ids[i] = strings.TrimSpace(id)
		if !slices.Contains(bench.List(), ids[i]) {
			return nil, fmt.Errorf("-exp %q: unknown experiment", ids[i])
		}
	}
	return ids, nil
}

// benchScale returns the -scale preset with the overrides applied, or an
// error naming the first flag out of range: an override below 0, a
// non-finite -dataset-scale, -lookahead below -1 or -workers below 0.
func (o *options) benchScale() (bench.Scale, error) {
	var sc bench.Scale
	switch o.scale {
	case "quick":
		sc = bench.Quick()
	case "default":
		sc = bench.Default()
	default:
		return sc, fmt.Errorf("unknown scale %q (want quick or default)", o.scale)
	}
	if !(o.datasetScale >= 0 && o.datasetScale <= math.MaxFloat64) {
		return sc, fmt.Errorf("-dataset-scale %v: want a positive finite value, or 0 to keep the scale's", o.datasetScale)
	}
	if o.workers < 0 {
		return sc, fmt.Errorf("-workers %d: want 0 (keep GOMAXPROCS) or more", o.workers)
	}
	if o.datasetScale > 0 {
		sc.DatasetScale = o.datasetScale
	}
	for _, f := range []struct {
		name     string
		v, floor int // v == floor keeps the scale's value; below it is refused
		dst      *int
	}{
		{"batch", o.batch, 0, &sc.Batch}, {"steps", o.steps, 0, &sc.Steps}, {"dim", o.dim, 0, &sc.EmbDim},
		{"rank", o.rank, 0, &sc.Rank}, {"train-steps", o.trainSteps, 0, &sc.TrainSteps},
		{"lookahead", o.lookahead, -1, &sc.Lookahead},
	} {
		if f.v < f.floor {
			return sc, fmt.Errorf("-%s %d: want %d (keep the default) or more", f.name, f.v, f.floor)
		}
		if f.v > f.floor {
			*f.dst = f.v
		}
	}
	return sc, nil
}

// run is elrec-bench on args, returning the exit code: 2 for a command line
// it refuses, before any experiment runs.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("elrec-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := newOptions(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if o.compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: elrec-bench -compare old.json new.json")
			return 2
		}
		if err := compareArtifacts(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}
	sc, err := o.benchScale()
	var ids []string
	if err == nil {
		ids, err = o.experiments()
	}
	if err == nil && fs.NArg() > 0 {
		err = fmt.Errorf("positional arguments %q (only -compare takes any)", fs.Args())
	}
	if err != nil {
		fmt.Fprintln(stderr, "invalid flags:", err)
		return 2
	}
	if o.workers > 0 {
		hw.SetHostWorkers(o.workers)
	}

	reg := obs.NewRegistry()
	sc.Metrics = reg
	if o.debugAddr != "" {
		dbg, err := obs.Serve(o.debugAddr, reg, nil, nil, nil)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer dbg.Close()
		fmt.Fprintf(stderr, "debug endpoint up on %s\n", dbg.Addr())
	}

	for _, id := range ids {
		reg.Reset()
		start := time.Now()
		res, err := bench.Run(id, sc)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		elapsed := time.Since(start)
		res.Fprint(stdout)
		fmt.Fprintf(stdout, "(%s regenerated in %v)\n\n", id, elapsed.Round(time.Millisecond))
		if o.jsonDir != "" {
			if err := writeArtifact(o.jsonDir, res, sc, elapsed, reg.Snapshot()); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
		}
	}
	return 0
}

// readArtifact loads one BENCH_<id>.json file.
func readArtifact(path string) (*artifact, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench compare: %w", err)
	}
	var a artifact
	if err := json.Unmarshal(buf, &a); err != nil {
		return nil, fmt.Errorf("bench compare %s: %w", path, err)
	}
	return &a, nil
}

// numCell parses a numeric table cell, stripping the unit suffixes the
// bench tables use ("/s", "x", "%", "M").
func numCell(s string) (float64, bool) {
	for _, suf := range []string{"/s", "x", "%", "M"} {
		s = strings.TrimSuffix(s, suf)
	}
	v, err := strconv.ParseFloat(s, 64)
	return v, err == nil
}

// compareArtifacts prints per-metric deltas between two artifacts of the
// same experiment. Rows are matched by their first cell (the metric name);
// numeric cells get old/new/delta columns, and rows present in only one
// artifact are reported as added/removed.
func compareArtifacts(w io.Writer, oldPath, newPath string) error {
	oldA, err := readArtifact(oldPath)
	if err != nil {
		return err
	}
	newA, err := readArtifact(newPath)
	if err != nil {
		return err
	}
	if oldA.ID != newA.ID {
		fmt.Fprintf(w, "warning: comparing different experiments (%s vs %s)\n", oldA.ID, newA.ID)
	}
	fmt.Fprintf(w, "== compare %s: %s -> %s ==\n", oldA.ID, oldPath, newPath)
	oldRows := make(map[string][]string, len(oldA.Rows))
	matched := make(map[string]bool, len(oldA.Rows))
	for _, r := range oldA.Rows {
		if len(r) > 0 {
			oldRows[r[0]] = r
		}
	}
	for _, nr := range newA.Rows {
		if len(nr) == 0 {
			continue
		}
		or, ok := oldRows[nr[0]]
		if !ok {
			fmt.Fprintf(w, "%-24s (added)\n", nr[0])
			continue
		}
		matched[nr[0]] = true
		fmt.Fprintf(w, "%-24s", nr[0])
		for col := 1; col < len(nr) && col < len(or); col++ {
			ov, oldNum := numCell(or[col])
			nv, newNum := numCell(nr[col])
			name := fmt.Sprintf("col%d", col)
			if col < len(newA.Header) {
				name = newA.Header[col]
			}
			if !oldNum || !newNum {
				if or[col] != nr[col] {
					fmt.Fprintf(w, "  %s: %s -> %s", name, or[col], nr[col])
				}
				continue
			}
			pct := 0.0
			if ov != 0 {
				pct = (nv - ov) / ov * 100
			}
			fmt.Fprintf(w, "  %s: %.2f -> %.2f (%+.1f%%)", name, ov, nv, pct)
		}
		fmt.Fprintln(w)
	}
	for _, r := range oldA.Rows {
		if len(r) > 0 && !matched[r[0]] {
			fmt.Fprintf(w, "%-24s (removed)\n", r[0])
		}
	}
	return nil
}

// writeArtifact serializes one experiment's result as BENCH_<id>.json.
func writeArtifact(dir string, res *bench.Result, sc bench.Scale, elapsed time.Duration, snap obs.Snapshot) error {
	a := artifact{
		ID:        res.ID,
		Title:     res.Title,
		Host:      readHostInfo(),
		Scale:     sc,
		Header:    res.Header,
		Rows:      res.Rows,
		Notes:     res.Notes,
		ElapsedMS: elapsed.Milliseconds(),
		Metrics:   snap,
	}
	buf, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return fmt.Errorf("bench artifact %s: %w", res.ID, err)
	}
	path := filepath.Join(dir, "BENCH_"+res.ID+".json")
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return fmt.Errorf("bench artifact: %w", err)
	}
	return nil
}
