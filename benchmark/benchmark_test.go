package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

func readDeclared(t *testing.T) declaration {
	t.Helper()
	var d declaration
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// serveBinary builds elrec-serve once for every test that needs a server.
func serveBinary(t *testing.T) string {
	t.Helper()
	bin, err := buildServeBinary(context.Background(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// contractLine is the result object of the benchmark contract.
type contractLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runQuick runs one workload of the smoke profile in process and decodes
// the last stdout line.
func runQuick(t *testing.T, ctx context.Context, out, bin, workload string, traced bool) (int, contractLine, string) {
	t.Helper()
	args := []string{"-quick", "-seconds", "0.5", "-seed", "3", "-out", out, "-serve-bin", bin, "-workload", workload}
	if traced {
		args = append(args, "-trace", "1")
	}
	var stdout, stderr bytes.Buffer
	code := run(ctx, args, &stdout, &stderr)
	var line contractLine
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if last := lines[len(lines)-1]; last != "" {
		if err := json.Unmarshal([]byte(last), &line); err != nil {
			t.Fatalf("%s: last stdout line is not the result object: %v\n%s", workload, err, last)
		}
	}
	return code, line, stderr.String()
}

// leftovers lists what a finished run must not leave behind: elrec-serve
// children of this process and scratch directories under out.
func leftovers(t *testing.T, out string) []string {
	t.Helper()
	var found []string
	procs, err := filepath.Glob("/proc/[0-9]*/status")
	if err != nil {
		t.Fatal(err)
	}
	self := os.Getpid()
	for _, status := range procs {
		if procField(status, "Name") == "elrec-serve" && procField(status, "PPid") == strconv.Itoa(self) {
			found = append(found, "child process "+status)
		}
	}
	for _, pattern := range []string{"serve-*", "train-*"} {
		dirs, err := filepath.Glob(filepath.Join(out, pattern))
		if err != nil {
			t.Fatal(err)
		}
		found = append(found, dirs...)
	}
	return found
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestQuickProfile runs every declared workload untraced and traced at the
// smoke scale and holds the output to BENCHMARK.json: every declared name
// exactly once with its unit, nothing undeclared, correct outputs, a
// well-formed trace, and nothing left running or lying around.
func TestQuickProfile(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the binary runs %d", len(d.Workloads), len(workloads))
	}
	bin := serveBinary(t)
	out := t.TempDir()
	ctx := context.Background()

	for _, w := range d.Workloads {
		for _, traced := range []bool{false, true} {
			want, mode := d.EndToEnd, "timed"
			if traced {
				want, mode = d.PerLayer, "traced"
			}
			t.Run(w.Name+"/"+mode, func(t *testing.T) {
				if raceEnabled && !traced {
					// The traced run drives the same server, load generator
					// and pipeline plus the tracer; the timed loop on top
					// would only add minutes under the race detector.
					t.Skip("untraced runs are skipped under the race detector")
				}
				code, line, stderr := runQuick(t, ctx, out, bin, w.Name, traced)
				if code != 0 || !line.Correct || line.Failed != 0 || line.Attempted < 1 {
					t.Fatalf("exit %d, %+v\n%s", code, line, stderr)
				}
				if len(line.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, %d declared", len(line.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := line.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("declared metric %s not emitted", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("%s has unit %q, declared %q", m.Name, got.Unit, m.Unit)
					case !metricName.MatchString(m.Name):
						t.Errorf("metric name %q is outside the contract's alphabet", m.Name)
					case !traced && !(got.Value > 0):
						t.Errorf("end-to-end metric %s = %v, must never be 0", m.Name, got.Value)
					}
				}
				if left := leftovers(t, out); len(left) > 0 {
					t.Fatalf("left behind: %v", left)
				}
				if traced {
					checkLayerShape(t, w.Name, line.Metrics)
					checkTrace(t, filepath.Join(out, "trace_"+w.Name+".json"))
				}
			})
		}
	}
}

// checkLayerShape asserts what the workloads are designed to separate:
// the parts of a decomposed step sum to the step, tt is silent on
// train_host, ps speaks only there, and the serving onion nests.
func checkLayerShape(t *testing.T, workload string, m map[string]metric) {
	t.Helper()
	val := func(name string) float64 { return m[name].Value }
	switch workload {
	case "train_tt", "train_host":
		var parts float64
		for name := range m {
			if isStepPart(name) {
				parts += val(name)
			}
		}
		step := val("dlrm.step_ms")
		if !raceEnabled && (parts > step || parts < 0.95*step) {
			t.Errorf("%s: layer parts sum to %.3f ms of a %.3f ms step", workload, parts, step)
		}
		if pipelined := workload == "train_host"; (val("ps.train_ms") > 0) != pipelined || (val("tt.lookup_ms") > 0) == pipelined {
			t.Errorf("%s: ps.train_ms = %v, tt.lookup_ms = %v", workload, val("ps.train_ms"), val("tt.lookup_ms"))
		}
		if val("served.loopback_p50_us") != 0 {
			t.Errorf("%s reports a serving layer", workload)
		}
	default:
		if val("dlrm.step_ms") != 0 || val("ps.train_ms") != 0 {
			t.Errorf("%s reports a training layer", workload)
		}
		if val("served.reload_failed") != 0 {
			t.Errorf("%s: %v requests failed during the reload", workload, val("served.reload_failed"))
		}
		// Every layer of the onion ran. How the layers nest is not asserted:
		// under the load of the other packages' tests neither the p50s of
		// the passes nor the in-process handler against the binary order
		// reliably.
		for _, name := range []string{"served.loopback_p50_us", "served.handler_p50_us", "served.pool_score_p50_us", "serve.ranker_score_p50_us", "dlrm.forward_p50_us", "nn.forward_p50_us"} {
			if val(name) <= 0 {
				t.Errorf("%s: %s = %v", workload, name, val(name))
			}
		}
	}
}

// isStepPart reports whether a per-layer metric is one constituent call of
// the decomposed training step.
func isStepPart(name string) bool {
	switch name {
	case "data.batch_ms", "reorder.apply_ms", "tt.lookup_ms", "tt.update_ms", "embedding.lookup_ms", "embedding.update_ms":
		return true
	}
	return strings.HasPrefix(name, "nn.") && strings.HasSuffix(name, "_ms")
}

// checkTrace parses a Chrome trace file: it must hold spans, every parent id
// must resolve inside the file, and every identified span that is not a
// trace root must have a parent.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Args map[string]string `json:"args"`
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var raw struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatalf("%s does not parse: %v", path, err)
	}
	var spans []event
	ids := map[string]bool{}
	for _, msg := range raw.TraceEvents {
		var e event
		// Metadata events carry non-string args; only complete spans matter.
		if json.Unmarshal(msg, &e) != nil || e.Ph != "X" {
			continue
		}
		spans = append(spans, e)
		if id := e.Args["span"]; id != "" {
			ids[id] = true
		}
	}
	if len(spans) == 0 {
		t.Fatalf("%s holds no spans", path)
	}
	for _, e := range spans {
		id, parent := e.Args["span"], e.Args["parent"]
		if id == "" {
			continue // a local lane span of the ps pipeline
		}
		root := e.Args["trace"] == id
		switch {
		case root && parent != "":
			t.Errorf("%s: root span %s has a parent", path, e.Name)
		case !root && parent == "":
			t.Errorf("%s: span %s has no parent", path, e.Name)
		case !root && !ids[parent]:
			t.Errorf("%s: span %s has a parent outside the file", path, e.Name)
		}
	}
}

// TestServerReapedOnFailure cancels a serving run in mid-flight: whatever
// phase the cancellation lands in, the run must fail rather than report,
// the child must be interrupted and reaped and its scratch dir removed.
func TestServerReapedOnFailure(t *testing.T) {
	bin := serveBinary(t)
	out := t.TempDir()
	for _, after := range []time.Duration{0, 150 * time.Millisecond, 600 * time.Millisecond} {
		ctx, cancel := context.WithTimeout(context.Background(), after)
		code, line, _ := runQuick(t, ctx, out, bin, "serve_small", false)
		cancel()
		if code == 0 && line.Failed == 0 && after == 0 {
			t.Errorf("a run cancelled before it started reported success: %+v", line)
		}
		if left := leftovers(t, out); len(left) > 0 {
			t.Fatalf("run cancelled after %v left behind: %v", after, left)
		}
	}
}

// TestCompare drives -compare over synthetic results files: equal runs pass,
// a metric past its bound or a risen failed share breaches, and files from
// different hosts are refused.
func TestCompare(t *testing.T) {
	d := readDeclared(t)
	spec := filepath.Join("..", "BENCHMARK.json")
	dir := t.TempDir()
	write := func(name string, mutate func(*results)) string {
		doc := results{Host: hostInfo{CPUModel: "cpu", NProc: 2}}
		for _, w := range d.Workloads {
			wr := workloadResult{Name: w.Name, Correct: true, Attempted: 100, EndToEnd: map[string]metric{}}
			for _, m := range d.EndToEnd {
				wr.EndToEnd[m.Name] = metric{Value: 100, Unit: m.Unit}
			}
			doc.Workloads = append(doc.Workloads, wr)
		}
		mutate(&doc)
		path := filepath.Join(dir, name)
		if err := writeJSON(path, doc); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", func(*results) {})
	cases := []struct {
		name   string
		mutate func(*results)
		want   int
	}{
		{"same", func(*results) {}, 0},
		{"better", func(r *results) { r.Workloads[0].EndToEnd["op_time_us"] = metric{Value: 50} }, 0},
		{"slower", func(r *results) { r.Workloads[1].EndToEnd["op_time_us"] = metric{Value: 200} }, 1},
		{"fatter", func(r *results) { r.Workloads[2].EndToEnd["peak_rss_mb"] = metric{Value: 200} }, 1},
		{"failing", func(r *results) { r.Workloads[3].Failed = 1 }, 1},
		{"other-host", func(r *results) { r.Host.NProc = 64 }, 2},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		got := runCompare(spec, base, write(c.name+".json", c.mutate), &stdout, &stderr)
		if got != c.want {
			t.Errorf("%s: exit %d, want %d\n%s%s", c.name, got, c.want, stdout.String(), stderr.String())
		}
	}
}

// TestResultsEndWithNullClaim pins the shape later tooling relies on: the
// results document ends with "claim": null.
func TestResultsEndWithNullClaim(t *testing.T) {
	data, err := json.Marshal(results{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(data, []byte(`"claim":null}`)) {
		t.Errorf("results.json does not end with a null claim: %s", data)
	}
}

// TestNormalise pins which reference pieces a window is held against: a
// window of work done on the measuring goroutine takes the burst pieces
// alone, any other window takes every piece, and a window without a piece
// is dropped.
func TestNormalise(t *testing.T) {
	ms := time.Millisecond
	r := &refClock{samples: []refSample{
		{at: 1 * ms, dur: 2 * refNominal, burst: true},
		{at: 2 * ms, dur: 4 * refNominal}, // sampler
		{at: 50 * ms, dur: refNominal},    // sampler, outside both windows
	}}
	got := r.normalise([]refWindow{
		{from: 0, to: 10 * ms, raw: 600, own: true},
		{from: 0, to: 10 * ms, raw: 600},
		{from: 20 * ms, to: 30 * ms, raw: 600},
	})
	if want := []float64{300, 200}; len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("normalise = %v, want %v", got, want)
	}
}
