// Command benchmark is the repo benchmark declared by BENCHMARK.json: four
// workloads (two training topologies through the elrec facade, two request
// sizes against the real elrec-serve binary), each reporting the same
// end-to-end metrics from an untraced timed run and, from a separate traced
// run, one metric per layer call it re-issues from outside. README.md in
// this directory is the metric catalogue.
//
// Usage, from the repo root (run.sh builds this module and cmd/elrec-serve
// into .bench_build/ and passes its arguments on):
//
//	bash benchmark/run.sh --workload train_tt --seed 1 --seconds 12 --trace 0
//	    one run of one workload; the last stdout line is the result object
//	    the benchmark contract asks for (this is BENCHMARK.json's command)
//	bash benchmark/run.sh -seed 1 -runs 5 -out DIR
//	    all four workloads, each run in its own child process: -runs untraced
//	    runs (median reported) and one traced run per workload; prints every
//	    metric and writes DIR/results.json plus one Chrome trace per workload
//	bash benchmark/run.sh -compare A/results.json B/results.json
//	    relative delta of every workload × end-to-end metric against its
//	    bound in BENCHMARK.json; exit 1 on a breach
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is everything one run of one workload produced. Metrics holds
// the end-to-end metrics of an untraced run or the per-layer metrics of a
// traced one; Segments keeps the run's operation time per fifth of the
// timed phase and each set-up's time, Samples the counts behind them.
type runResult struct {
	Workload  string               `json:"workload"`
	Traced    bool                 `json:"traced"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Failures  []string             `json:"failures,omitempty"`
	Metrics   map[string]metric    `json:"metrics"`
	Segments  map[string][]float64 `json:"segments,omitempty"`
	Samples   map[string]int       `json:"samples,omitempty"`
	TraceFile string               `json:"trace_file,omitempty"`
}

func newResult(workload string, traced bool) *runResult {
	return &runResult{
		Workload: workload, Traced: traced,
		Metrics:  map[string]metric{},
		Segments: map[string][]float64{},
		Samples:  map[string]int{},
	}
}

func (r *runResult) set(name string, value float64, unit string) {
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

// maxFailureNotes bounds the failure descriptions kept per run; the count in
// Failed stays exact.
const maxFailureNotes = 8

// fail records one failed operation.
func (r *runResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < maxFailureNotes {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// options are the settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	runs     int
	traced   bool
	quick    bool
	outDir   string
	serveBin string
}

// workloads are the declared workloads in the order the all-workloads mode
// runs and prints them. The names are fixed: BENCHMARK.json, README.md and
// later issues cite them.
var workloads = []struct {
	name string
	run  func(context.Context, options) (*runResult, error)
}{
	{"train_tt", func(ctx context.Context, o options) (*runResult, error) { return runTrain(ctx, o, trainTT) }},
	{"train_host", func(ctx context.Context, o options) (*runResult, error) { return runTrain(ctx, o, trainHost) }},
	{"serve_small", func(ctx context.Context, o options) (*runResult, error) { return runServe(ctx, o, "serve_small", 8) }},
	{"serve_large", func(ctx context.Context, o options) (*runResult, error) { return runServe(ctx, o, "serve_large", 128) }},
}

func main() {
	// Ctrl-C cancels the run context: training drains, the elrec-serve child
	// is interrupted and reaped, temp dirs are removed, then we exit.
	//elrec:rootctx process root: the benchmark binary owns its own lifetime
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run one workload (train_tt, train_host, serve_small, serve_large); empty runs all four, each in a child process")
		seed     = fs.Uint64("seed", 1, "seeds the inputs only: the training data stream or the request stream")
		seconds  = fs.Float64("seconds", 12, "timed seconds of an untraced run; a traced run sizes its passes to them")
		traceOn  = fs.Int("trace", 0, "0: untraced timed run reporting the end-to-end metrics; 1: traced run reporting the per-layer metrics")
		runs     = fs.Int("runs", 1, "all-workloads mode: untraced runs per workload, on seeds seed, seed+1, ...; results.json reports their median")
		quick    = fs.Bool("quick", false, "smoke profile: dataset x0.001, batch 64 (what benchmark_test.go runs)")
		outDir   = fs.String("out", "", "directory for results.json, traces and scratch files (default: a temp dir removed at exit)")
		serveBin = fs.String("serve-bin", "", "prebuilt elrec-serve binary (default: go build ./cmd/elrec-serve into the scratch dir)")
		compare  = fs.Bool("compare", false, "compare two results.json files given as arguments")
		specPath = fs.String("spec", "BENCHMARK.json", "benchmark declaration read by -compare for directions and bounds")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare wants two results.json paths")
			return 2
		}
		return runCompare(*specPath, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *seconds <= 0 || *runs < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(stderr, "benchmark: unexpected arguments, non-positive -seconds or -runs, or -trace outside {0,1}")
		return 2
	}

	o := options{
		workload: *workload, seed: *seed, seconds: *seconds, runs: *runs, traced: *traceOn == 1,
		quick: *quick, outDir: *outDir, serveBin: *serveBin,
	}
	if o.outDir == "" {
		tmp, err := os.MkdirTemp("", "elrec-benchmark-")
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		defer os.RemoveAll(tmp)
		o.outDir = tmp
	} else if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}

	if o.workload == "" {
		return runAll(ctx, o, stdout, stderr)
	}
	var runner func(context.Context, options) (*runResult, error)
	for _, w := range workloads {
		if w.name == o.workload {
			runner = w.run
		}
	}
	if runner == nil {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", o.workload)
		return 2
	}
	res, err := runner(ctx, o)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", o.workload, err)
		return 1
	}
	if *outDir != "" {
		if err := writeJSON(runFile(o.outDir, o.workload, o.traced), res); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	for _, note := range res.Failures {
		fmt.Fprintf(stderr, "benchmark: %s: FAILED %s\n", o.workload, note)
	}
	// The result object of the benchmark contract, as the last stdout line.
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if res.Failed > 0 {
		return 1
	}
	return 0
}

// runFile names the per-run result file a child leaves for the parent.
func runFile(dir, workload string, traced bool) string {
	mode := "timed"
	if traced {
		mode = "traced"
	}
	return filepath.Join(dir, "run_"+workload+"_"+mode+".json")
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// workloadResult is one workload's section of results.json: the untraced
// run's end-to-end metrics beside the traced run's per-layer metrics.
type workloadResult struct {
	Name      string               `json:"name"`
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Failures  []string             `json:"failures,omitempty"`
	EndToEnd  map[string]metric    `json:"end_to_end"` // median over the untraced runs
	PerRun    map[string][]float64 `json:"per_run"`    // each untraced run's value
	PerLayer  map[string]metric    `json:"per_layer"`
	Segments  map[string][]float64 `json:"segments"`
	Samples   map[string]int       `json:"samples"`
	TraceFile string               `json:"trace_file"`
}

// results is the results.json document. Claim stays last and null: this
// benchmark is the instrument, it claims no gain.
type results struct {
	Host      hostInfo         `json:"host"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Runs      int              `json:"runs"`
	Quick     bool             `json:"quick"`
	Workloads []workloadResult `json:"workloads"`
	Claim     *string          `json:"claim"`
}

// runChild runs one workload once in a child process of this binary, so
// that peak RSS and GC state are that run's alone, and returns what it left
// in its run file.
func runChild(ctx context.Context, self string, o options, name string, traced bool, seed uint64, stderr io.Writer) (runResult, error) {
	args := []string{
		"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(o.seconds),
		"-out", o.outDir, "-serve-bin", o.serveBin, fmt.Sprintf("-quick=%t", o.quick),
	}
	if traced {
		args = append(args, "-trace", "1")
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = stderr
	runErr := cmd.Run() // a run with failed operations exits 1 and still leaves its file
	var res runResult
	path := runFile(o.outDir, name, traced)
	if err := readJSON(path, &res); err != nil {
		return res, fmt.Errorf("%s produced no result (%v): %w", name, runErr, err)
	}
	_ = os.Remove(path) // folded into results.json by the caller
	return res, nil
}

// runAll runs every workload -runs times untraced (seeds seed, seed+1, ...)
// and once traced, prints every metric by name and writes results.json. An
// end-to-end value is the median over the runs, as the gate takes it.
func runAll(ctx context.Context, o options, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if o.serveBin == "" {
		// Build the server once here instead of once per serving child.
		if o.serveBin, err = buildServeBinary(ctx, o.outDir); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		defer os.Remove(o.serveBin)
	}
	doc := results{Host: readHostInfo(ctx), Seed: o.seed, Seconds: o.seconds, Runs: o.runs, Quick: o.quick}
	failed := false
	for _, w := range workloads {
		name := w.name
		wr := workloadResult{
			Name: name, EndToEnd: map[string]metric{}, PerRun: map[string][]float64{},
			Segments: map[string][]float64{}, Samples: map[string]int{},
		}
		fold := func(res runResult) {
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			wr.Failures = append(wr.Failures, res.Failures...)
			for k, v := range res.Segments { // raw values of the last run
				wr.Segments[k] = v
			}
			for k, v := range res.Samples {
				wr.Samples[k] = v
			}
		}
		for i := 0; i < o.runs; i++ {
			res, err := runChild(ctx, self, o, name, false, o.seed+uint64(i), stderr)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			fold(res)
			for k, m := range res.Metrics {
				wr.PerRun[k] = append(wr.PerRun[k], m.Value)
				wr.EndToEnd[k] = metric{Value: median(wr.PerRun[k]), Unit: m.Unit}
			}
		}
		res, err := runChild(ctx, self, o, name, true, o.seed, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fold(res)
		wr.PerLayer, wr.TraceFile = res.Metrics, filepath.Base(res.TraceFile)
		wr.Correct = wr.Failed == 0
		failed = failed || !wr.Correct
		printWorkload(stdout, wr)
		doc.Workloads = append(doc.Workloads, wr)
	}
	path := filepath.Join(o.outDir, "results.json")
	if err := writeJSON(path, doc); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "\nwrote %s (claim: null)\n", path)
	if failed {
		return 1
	}
	return 0
}

// printWorkload lists one workload's metrics by name with value and unit.
func printWorkload(w io.Writer, wr workloadResult) {
	fmt.Fprintf(w, "\n== %s: attempted %d, failed %d, correct %t\n", wr.Name, wr.Attempted, wr.Failed, wr.Correct)
	for _, section := range []struct {
		title   string
		metrics map[string]metric
	}{{fmt.Sprintf("end to end (median of %d runs)", len(wr.PerRun["setup_s"])), wr.EndToEnd}, {"per layer", wr.PerLayer}} {
		fmt.Fprintf(w, "-- %s\n", section.title)
		for _, name := range sortedKeys(section.metrics) {
			m := section.metrics[name]
			fmt.Fprintf(w, "%-34s %16.4f %s\n", name, m.Value, m.Unit)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
