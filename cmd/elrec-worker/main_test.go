package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cmdtest"
	"repro/internal/tensor"
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

// TestReferenceHash pins the final_hash of CI's distributed-smoke reference
// run for each kernel family measured: every bit-exactness test compares
// two runs with each other, so a change that moves both alike shows here.
// The hash is the same at any worker count; a GOARCH/family pair with no
// measured hash logs its own and skips.
func TestReferenceHash(t *testing.T) {
	args := strings.Fields("-reference -dataset kaggle -dataset-scale 0.0005 -dim 8 -rank 4 -tt-threshold 2000 -lr 0.5 -steps 400 -batch 32 -log-level warn")
	var out bytes.Buffer
	if code := run(flag.NewFlagSet("elrec-worker", flag.ContinueOnError), args, &out, os.Stderr); code != 0 {
		t.Fatalf("elrec-worker %s: exit %d", strings.Join(args, " "), code)
	}
	hash, _, _ := strings.Cut(strings.TrimPrefix(out.String(), "final_hash="), " ")
	want := map[string]string{
		"amd64/avx512":   "9217dde822891f28",
		"amd64/avx2":     "9217dde822891f28",
		"amd64/portable": "70bc38276e3a2b5a",
	}[runtime.GOARCH+"/"+tensor.KernelName()]
	if want == "" {
		t.Skipf("no reference hash measured for %s/%s; this run: %s", runtime.GOARCH, tensor.KernelName(), out.String())
	}
	if hash != want {
		t.Errorf("%s kernels: final_hash=%s, want %s (%s)", tensor.KernelName(), hash, want, strings.TrimSpace(out.String()))
	}
}

// TestStrayWordExitsTwo: flag parsing stops at a positional argument, so
// elrec-worker refuses one with exit 2 and an invalid-flags line before it runs;
// without the check this command line would train one step and exit 0.
func TestStrayWordExitsTwo(t *testing.T) {
	args := strings.Fields("-reference -dataset-scale 0.0005 -steps 1 -batch 8 stray -batch 0")
	var stderr bytes.Buffer
	if code := run(flag.NewFlagSet("elrec-worker", flag.ContinueOnError), args, io.Discard, &stderr); code != 2 || !strings.Contains(stderr.String(), "invalid flags") {
		t.Fatalf("elrec-worker %s: exit %d, log %q; want exit 2 and an invalid flags line", strings.Join(args, " "), code, stderr.String())
	}
}
