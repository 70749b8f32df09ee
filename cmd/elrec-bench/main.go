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
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
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
	var (
		exps         = flag.String("exp", "all", "comma-separated experiment ids, or 'all' (known: "+strings.Join(bench.List(), ", ")+")")
		scaleName    = flag.String("scale", "default", "base scale: quick or default")
		datasetScale = flag.Float64("dataset-scale", 0, "override: dataset cardinality multiplier")
		batch        = flag.Int("batch", 0, "override: batch size")
		steps        = flag.Int("steps", 0, "override: measured steps per configuration")
		dim          = flag.Int("dim", 0, "override: embedding dimension")
		rank         = flag.Int("rank", 0, "override: TT rank")
		trainSteps   = flag.Int("train-steps", 0, "override: steps for accuracy/convergence experiments")
		jsonDir      = flag.String("json-dir", ".", "directory for BENCH_<id>.json artifacts ('' disables)")
		debugAddr    = flag.String("debug-addr", "", "serve /metrics and pprof on this address while the sweep runs")
		workers      = flag.Int("workers", 0, "bound host-side kernel parallelism (0 keeps GOMAXPROCS)")
		compare      = flag.Bool("compare", false, "compare two BENCH_<id>.json artifacts: elrec-bench -compare old.json new.json")
		lookahead    = flag.Int("lookahead", -1, "override: pipeline lookahead window for pipecache (0 disables planning, -1 keeps the scale default)")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: elrec-bench -compare old.json new.json")
			os.Exit(2)
		}
		if err := compareArtifacts(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *workers > 0 {
		hw.SetHostWorkers(*workers)
	}

	var sc bench.Scale
	switch *scaleName {
	case "quick":
		sc = bench.Quick()
	case "default":
		sc = bench.Default()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (want quick or default)\n", *scaleName)
		os.Exit(2)
	}
	if *datasetScale > 0 {
		sc.DatasetScale = *datasetScale
	}
	if *batch > 0 {
		sc.Batch = *batch
	}
	if *steps > 0 {
		sc.Steps = *steps
	}
	if *dim > 0 {
		sc.EmbDim = *dim
	}
	if *rank > 0 {
		sc.Rank = *rank
	}
	if *trainSteps > 0 {
		sc.TrainSteps = *trainSteps
	}
	if *lookahead >= 0 {
		sc.Lookahead = *lookahead
	}

	reg := obs.NewRegistry()
	sc.Metrics = reg
	if *debugAddr != "" {
		dbg, err := obs.Serve(*debugAddr, reg, nil, nil, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "debug endpoint up on %s\n", dbg.Addr())
	}

	ids := bench.List()
	if *exps != "all" {
		ids = strings.Split(*exps, ",")
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		reg.Reset()
		start := time.Now()
		res, err := bench.Run(id, sc)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		elapsed := time.Since(start)
		res.Fprint(os.Stdout)
		fmt.Printf("(%s regenerated in %v)\n\n", id, elapsed.Round(time.Millisecond))
		if *jsonDir != "" {
			if err := writeArtifact(*jsonDir, res, sc, elapsed, reg.Snapshot()); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
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
