package main

import (
	"fmt"
	"io"
)

// declaration is BENCHMARK.json as the comparison and the tests read it.
type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end metrics only
}

// runCompare prints, per workload × end-to-end metric, how much worse B is
// than A relative to A, against the metric's bound. It exits 1 when any
// pairing breaches its bound or a workload's failed share rose, 2 when the
// files cannot be compared at all.
func runCompare(specPath, pathA, pathB string, stdout, stderr io.Writer) int {
	var decl declaration
	var a, b results
	for _, f := range []struct {
		path string
		into any
	}{{specPath, &decl}, {pathA, &a}, {pathB, &b}} {
		if err := readJSON(f.path, f.into); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
	}
	if a.Host.CPUModel != b.Host.CPUModel || a.Host.NProc != b.Host.NProc {
		fmt.Fprintf(stderr, "benchmark: refusing to compare across hosts: %q x%d vs %q x%d\n",
			a.Host.CPUModel, a.Host.NProc, b.Host.CPUModel, b.Host.NProc)
		return 2
	}
	byName := func(r results) map[string]workloadResult {
		m := map[string]workloadResult{}
		for _, w := range r.Workloads {
			m[w.Name] = w
		}
		return m
	}
	wa, wb := byName(a), byName(b)

	breaches := 0
	fmt.Fprintf(stdout, "%-12s %-18s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "worse by", "bound")
	for _, w := range decl.Workloads {
		ra, okA := wa[w.Name]
		rb, okB := wb[w.Name]
		if !okA || !okB {
			fmt.Fprintf(stderr, "benchmark: workload %s missing from a results file\n", w.Name)
			return 2
		}
		if shareA, shareB := ratio(float64(ra.Failed), float64(ra.Attempted)), ratio(float64(rb.Failed), float64(rb.Attempted)); shareB > shareA {
			fmt.Fprintf(stdout, "%-12s failed share rose from %.4f to %.4f  BREACH\n", w.Name, shareA, shareB)
			breaches++
		}
		for _, m := range decl.EndToEnd {
			va, vb := ra.EndToEnd[m.Name].Value, rb.EndToEnd[m.Name].Value
			if va == 0 {
				fmt.Fprintf(stderr, "benchmark: %s %s is 0 in %s\n", w.Name, m.Name, pathA)
				return 2
			}
			worse := (vb - va) / va
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > m.Bound {
				verdict = "  BREACH"
				breaches++
			}
			fmt.Fprintf(stdout, "%-12s %-18s %14.4f %14.4f %+8.2f%% %6.0f%%%s\n",
				w.Name, m.Name, va, vb, 100*worse, 100*m.Bound, verdict)
		}
	}
	if breaches > 0 {
		fmt.Fprintf(stdout, "%d breach(es)\n", breaches)
		return 1
	}
	fmt.Fprintln(stdout, "within every bound")
	return 0
}
