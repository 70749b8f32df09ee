package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cmdtest"
)

func parse(args []string) (*flag.FlagSet, *options, error) {
	fs := flag.NewFlagSet("elrec-train", flag.ContinueOnError)
	o := newOptions(fs)
	return fs, o, cmdtest.Parse(fs, args)
}

// TestDocumentedCommandLines parses every elrec-train command line of the
// CI workflow, README and verify skill, and validates its run spec.
func TestDocumentedCommandLines(t *testing.T) {
	inv := cmdtest.Invocations(t, "../..", "elrec-train")
	if len(inv) < 12 {
		t.Fatalf("found %d elrec-train command lines, want at least 12", len(inv))
	}
	for _, c := range inv {
		_, o, err := parse(c.Args)
		if err == nil {
			_, err = o.spec.Validate()
		}
		if err != nil {
			t.Errorf("%s: elrec-train %s: %v", c.Where, strings.Join(c.Args, " "), err)
		}
	}
}

// TestDefaults pins the defaults of an empty command line.
func TestDefaults(t *testing.T) {
	fs, o, err := parse(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := o.spec.JSON(), `{"dataset":"terabyte","dataset_scale":0.002,"dim":16,"rank":8,"tt_threshold":10000,"lr":1,"steps":1000,"batch":512}`; got != want {
		t.Errorf("spec = %s\nwant   %s", got, want)
	}
	want := "adagrad=false batch=512 checkpoint= checkpoint-every=0 dataset=terabyte dataset-scale=0.002 debug-addr= dim=16 hbm-gb=-1 " +
		"log-every=100 log-level=INFO lookahead=0 lr=1 no-reorder=false queue=4 rank=8 resume= save= steps=1000 trace= tt-threshold=10000"
	if got := cmdtest.Defaults(fs); got != want {
		t.Errorf("flags = %s\nwant    %s", got, want)
	}
}

// TestStrayWordExitsTwo: flag parsing stops at a positional argument, so
// elrec-train refuses one with exit 2 and an invalid-flags line before it runs;
// without the check this command line would train one step and exit 0.
func TestStrayWordExitsTwo(t *testing.T) {
	args := strings.Fields("-dataset-scale 0.0005 -steps 1 -batch 8 stray -batch 0")
	var stderr bytes.Buffer
	if code := run(flag.NewFlagSet("elrec-train", flag.ContinueOnError), args, &stderr); code != 2 || !strings.Contains(stderr.String(), "invalid flags") {
		t.Fatalf("elrec-train %s: exit %d, log %q; want exit 2 and an invalid flags line", strings.Join(args, " "), code, stderr.String())
	}
}

// TestCompletedRunSavesCheckpoint: with -checkpoint and no -checkpoint-every
// a run that completes saves its final state at resume iteration -steps, and
// resuming from it trains no step and exits 0.
func TestCompletedRunSavesCheckpoint(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	train := func(extra string) string {
		t.Helper()
		args := append(strings.Fields("-dataset-scale 0.0005 -steps 3 -batch 8 -log-every 1"), strings.Fields(extra)...)
		var stderr bytes.Buffer
		if code := run(flag.NewFlagSet("elrec-train", flag.ContinueOnError), args, &stderr); code != 0 {
			t.Fatalf("elrec-train %s: exit %d, log:\n%s", strings.Join(args, " "), code, stderr.String())
		}
		return stderr.String()
	}
	if log := train("-checkpoint " + ckpt); !strings.Contains(log, `msg="state saved"`) || !strings.Contains(log, "resume_iteration=3") {
		t.Fatalf("completed run logged no state saved at iteration 3:\n%s", log)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("completed run left no checkpoint: %v", err)
	}
	if log := train("-resume " + ckpt); !strings.Contains(log, "iteration=3") || !strings.Contains(log, "steps=0") {
		t.Fatalf("resume from the final state did not start at iteration 3 with no steps to train:\n%s", log)
	}
}
