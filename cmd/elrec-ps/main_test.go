package main

import (
	"bytes"
	"flag"
	"strings"
	"testing"

	"repro/internal/cmdtest"
)

func parse(args []string) (*flag.FlagSet, *options, error) {
	fs := flag.NewFlagSet("elrec-ps", flag.ContinueOnError)
	o := newOptions(fs)
	return fs, o, cmdtest.Parse(fs, args)
}

// TestDocumentedCommandLines parses every elrec-ps command line of the
// CI workflow, README and verify skill, and validates its run spec.
func TestDocumentedCommandLines(t *testing.T) {
	inv := cmdtest.Invocations(t, "../..", "elrec-ps")
	if len(inv) < 7 {
		t.Fatalf("found %d elrec-ps command lines, want at least 7", len(inv))
	}
	for _, c := range inv {
		_, o, err := parse(c.Args)
		if err == nil {
			_, err = o.spec.Validate()
		}
		if err != nil {
			t.Errorf("%s: elrec-ps %s: %v", c.Where, strings.Join(c.Args, " "), err)
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
	want := "addr=localhost:7070 batch=64 dataset=kaggle dataset-scale=0.001 debug-addr= dim=16 dir= drain-timeout=5s id=0 lease-ttl=3s " +
		"log-level=INFO lr=0.5 rank=8 shards=1 steps=200 tt-threshold=10000"
	if got := cmdtest.Defaults(fs); got != want {
		t.Errorf("flags = %s\nwant    %s", got, want)
	}
}

// TestStrayWordExitsTwo: flag parsing stops at a positional argument, so
// elrec-ps refuses one with exit 2 and an invalid-flags line before it runs;
// without the check this command line would fail to listen and exit 1.
func TestStrayWordExitsTwo(t *testing.T) {
	args := strings.Fields("-dir " + t.TempDir() + " -addr 127.0.0.1:99999 stray")
	var stderr bytes.Buffer
	if code := run(flag.NewFlagSet("elrec-ps", flag.ContinueOnError), args, &stderr); code != 2 || !strings.Contains(stderr.String(), "invalid flags") {
		t.Fatalf("elrec-ps %s: exit %d, log %q; want exit 2 and an invalid flags line", strings.Join(args, " "), code, stderr.String())
	}
}
