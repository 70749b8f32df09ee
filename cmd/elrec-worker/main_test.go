package main

import (
	"flag"
	"strings"
	"testing"

	"repro/internal/cmdtest"
)

func parse(args []string) (*flag.FlagSet, *options, error) {
	fs := flag.NewFlagSet("elrec-worker", flag.ContinueOnError)
	o := newOptions(fs)
	return fs, o, cmdtest.Parse(fs, args)
}

// TestDocumentedCommandLines parses every elrec-worker command line of the
// CI workflow, README and verify skill, and validates its run spec.
func TestDocumentedCommandLines(t *testing.T) {
	inv := cmdtest.Invocations(t, "../..", "elrec-worker")
	if len(inv) < 6 {
		t.Fatalf("found %d elrec-worker command lines, want at least 6", len(inv))
	}
	for _, c := range inv {
		_, o, err := parse(c.Args)
		if err == nil {
			_, err = o.spec.Validate()
		}
		if err != nil {
			t.Errorf("%s: elrec-worker %s: %v", c.Where, strings.Join(c.Args, " "), err)
		}
	}
}

// TestDefaults pins the defaults of an empty command line.
func TestDefaults(t *testing.T) {
	fs, o, err := parse(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := o.spec.JSON(), `{"dataset":"kaggle","dataset_scale":0.001,"dim":16,"rank":8,"tt_threshold":10000,"lr":0.5,"steps":200,"batch":64}`; got != want {
		t.Errorf("spec = %s\nwant   %s", got, want)
	}
	want := "batch=64 checkpoint= checkpoint-every=0 dataset=kaggle dataset-scale=0.001 debug-addr= dim=16 id=1 lease-ttl=3s " +
		"log-level=INFO lr=0.5 queue=4 rank=8 reference=false rpc-timeout=5s shards=localhost:7070 steps=200 tt-threshold=10000"
	if got := cmdtest.Defaults(fs); got != want {
		t.Errorf("flags = %s\nwant    %s", got, want)
	}
}
