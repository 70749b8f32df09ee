// Command elrec-lint is the project's static-analysis multichecker: it
// loads the packages matching the given go-list patterns and applies the
// eight invariant analyzers (nopanic, determinism, locksafe, gospawn,
// errcmp, obsclock, lockorder, ctxflow) from internal/analysis. Diagnostics print one per line as
// file:line:col: message [analyzer]; the exit status is 1 when any
// diagnostic is reported, 2 on a load or internal failure.
//
// Usage:
//
//	elrec-lint [-only name[,name...]] [-list] [-json] [packages]
//
// With no packages, ./... is assumed. -only restricts the run to a subset
// of analyzers; -list prints the suite and exits. -json emits the findings
// as a JSON array (file/line/col/analyzer/message) instead of text, for CI
// artifacts and tooling. A timing line (load/analyze wall clock) always goes
// to stderr so CI logs track the suite's cost.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/analysis"
)

// finding is the JSON shape of one diagnostic.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array instead of text")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: elrec-lint [-only name,...] [-list] [-json] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	suite := analysis.Suite()
	if *list {
		printSuite(os.Stdout, suite)
		return
	}
	if *only != "" {
		byName := map[string]*analysis.Analyzer{}
		for _, a := range suite {
			byName[a.Name] = a
		}
		var picked []*analysis.Analyzer
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "elrec-lint: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			picked = append(picked, a)
		}
		suite = picked
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loadStart := time.Now()
	pkgs, err := analysis.NewLoader().Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "elrec-lint:", err)
		os.Exit(2)
	}
	loadTime := time.Since(loadStart)
	runStart := time.Now()
	diags, err := analysis.RunAnalyzers(pkgs, suite, analysis.Applies)
	if err != nil {
		fmt.Fprintln(os.Stderr, "elrec-lint:", err)
		os.Exit(2)
	}
	runTime := time.Since(runStart)
	fmt.Fprintf(os.Stderr, "elrec-lint: timing: loaded %d packages in %v, ran %d analyzers in %v\n",
		len(pkgs), loadTime.Round(time.Millisecond), len(suite), runTime.Round(time.Millisecond))

	findings := make([]finding, 0, len(diags))
	for _, d := range diags {
		findings = append(findings, finding{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, "elrec-lint:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Printf("%s:%d:%d: %s [%s]\n", f.File, f.Line, f.Col, f.Message, f.Analyzer)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "elrec-lint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// printSuite is -list: one line per analyzer, its name and its doc.
func printSuite(w io.Writer, suite []*analysis.Analyzer) {
	for _, a := range suite {
		fmt.Fprintf(w, "%-16s %s\n", a.Name, a.Doc)
	}
}
