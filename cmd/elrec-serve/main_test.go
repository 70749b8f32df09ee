package main

import (
	"bytes"
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/cmdtest"
)

func parse(args []string) (*flag.FlagSet, *options, error) {
	fs := flag.NewFlagSet("elrec-serve", flag.ContinueOnError)
	o := newOptions(fs)
	return fs, o, cmdtest.Parse(fs, args)
}

// TestDocumentedCommandLines parses every elrec-serve command line of the
// CI workflow, README and verify skill, and validates its run spec.
func TestDocumentedCommandLines(t *testing.T) {
	inv := cmdtest.Invocations(t, "../..", "elrec-serve")
	if len(inv) < 7 {
		t.Fatalf("found %d elrec-serve command lines, want at least 7", len(inv))
	}
	for _, c := range inv {
		_, o, err := parse(c.Args)
		if err == nil {
			_, err = o.spec.Validate()
		}
		if err != nil {
			t.Errorf("%s: elrec-serve %s: %v", c.Where, strings.Join(c.Args, " "), err)
		}
	}
}

// TestDefaults pins the defaults of an empty command line.
func TestDefaults(t *testing.T) {
	fs, o, err := parse(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := o.spec.JSON(), `{"dataset":"terabyte","dataset_scale":0.002,"dim":16,"rank":8,"tt_threshold":10000,"lr":1,"steps":200,"batch":256}`; got != want {
		t.Errorf("spec = %s\nwant   %s", got, want)
	}
	want := "addr=localhost:8080 batch=256 dataset=terabyte dataset-scale=0.002 dim=16 load= log-level=INFO lr=1 " +
		"queue=256 rank=8 replicas=4 save= steps=200 timeout-ms=0 tt-threshold=10000"
	if got := cmdtest.Defaults(fs); got != want {
		t.Errorf("flags = %s\nwant    %s", got, want)
	}
}

// TestBenchmarkFlagsRegistered checks that every flag the repository
// benchmark starts elrec-serve with is defined.
func TestBenchmarkFlagsRegistered(t *testing.T) {
	src, err := os.ReadFile("../../benchmark/serve.go")
	if err != nil {
		t.Fatal(err)
	}
	start := strings.Index(string(src), "exec.Command(bin,")
	if start < 0 {
		t.Fatal("benchmark/serve.go no longer starts the binary with exec.Command(bin, ...)")
	}
	call, _, _ := strings.Cut(string(src)[start:], ")\n")
	fs, _, _ := parse(nil)
	names := regexp.MustCompile(`"-([a-z][a-z-]*)"`).FindAllStringSubmatch(call, -1)
	if len(names) < 9 {
		t.Fatalf("found %d flags in the benchmark's elrec-serve call, want at least 9", len(names))
	}
	for _, n := range names {
		if fs.Lookup(n[1]) == nil {
			t.Errorf("benchmark/serve.go passes -%s, which elrec-serve does not define", n[1])
		}
	}
}

// TestStrayWordExitsTwo: flag parsing stops at a positional argument, so
// elrec-serve refuses one with exit 2 and an invalid-flags line before it runs;
// without the check this command line would fail to load the model and exit 1.
func TestStrayWordExitsTwo(t *testing.T) {
	args := strings.Fields("-load /nonexistent/model.bin stray -steps 0")
	var stderr bytes.Buffer
	if code := run(flag.NewFlagSet("elrec-serve", flag.ContinueOnError), args, &stderr); code != 2 || !strings.Contains(stderr.String(), "invalid flags") {
		t.Fatalf("elrec-serve %s: exit %d, log %q; want exit 2 and an invalid flags line", strings.Join(args, " "), code, stderr.String())
	}
}
