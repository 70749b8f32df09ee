package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cmdtest"
)

func parse(args []string) (*flag.FlagSet, *options, error) {
	fs := flag.NewFlagSet("elrec-bench", flag.ContinueOnError)
	o := newOptions(fs)
	fs.SetOutput(io.Discard)
	return fs, o, fs.Parse(args)
}

// TestDocumentedCommandLines parses every elrec-bench command line of the
// CI workflow, README and verify skill: each applies its overrides to its
// scale and names only known experiments, and a -compare line compares two
// artifacts that exist.
func TestDocumentedCommandLines(t *testing.T) {
	inv := cmdtest.Invocations(t, "../..", "elrec-bench")
	if len(inv) < 7 {
		t.Fatalf("found %d elrec-bench command lines, want at least 7", len(inv))
	}
	for _, c := range inv {
		fs, o, err := parse(c.Args)
		switch {
		case err != nil:
		case o.compare && fs.NArg() == 2:
			err = compareArtifacts(io.Discard, filepath.Join("../..", fs.Arg(0)), filepath.Join("../..", fs.Arg(1)))
		case fs.NArg() > 0:
			err = fmt.Errorf("positional arguments %q", fs.Args())
		default:
			_, err = o.benchScale()
			if err == nil {
				_, err = o.experiments()
			}
		}
		if err != nil {
			t.Errorf("%s: elrec-bench %s: %v", c.Where, strings.Join(c.Args, " "), err)
		}
	}
}

// TestDefaults pins the defaults of an empty command line.
func TestDefaults(t *testing.T) {
	fs, _, err := parse(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := "batch=0 compare=false dataset-scale=0 debug-addr= dim=0 exp=all json-dir=. lookahead=-1 rank=0 scale=default steps=0 train-steps=0 workers=0"
	if got := cmdtest.Defaults(fs); got != want {
		t.Errorf("flags = %s\nwant    %s", got, want)
	}
}

// TestInvalidFlagsExitTwo: an override out of range, a positional argument
// or an unknown -exp id exits 2 with an "invalid flags" line and runs no
// experiment (table3 and table2 would print a table).
func TestInvalidFlagsExitTwo(t *testing.T) {
	base := []string{"-exp", "table3", "-scale", "quick", "-json-dir", ""}
	for _, bad := range [][]string{
		{"-batch", "-5", "-dim", "-3", "-rank", "0", "-dataset-scale", "-1"},
		{"-batch", "-1"}, {"-steps", "-1"}, {"-dim", "-1"}, {"-rank", "-1"}, {"-train-steps", "-1"},
		{"-workers", "-1"}, {"-lookahead", "-2"}, {"-dataset-scale", "-0.5"}, {"-dataset-scale", "NaN"},
		{"-dataset-scale", "+Inf"}, {"-scale", "huge"}, {"table2"}, {"-exp", "table2,nope"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(append(append([]string{}, base...), bad...), &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", bad, code)
		}
		if !strings.HasPrefix(stderr.String(), "invalid flags: ") || stdout.Len() > 0 {
			t.Errorf("%v: stderr %q, stdout %q; want one invalid-flags line and no output", bad, stderr.String(), stdout.String())
		}
	}
}
