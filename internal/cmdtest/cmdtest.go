// Package cmdtest finds the command lines this module's binaries are run
// with in its CI workflow, README and verify skill, so each binary's tests
// can parse every documented invocation through the flag set the binary
// defines: a renamed or deleted flag then fails a test, not a reader.
package cmdtest

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
)

// sources are globs, relative to the module root, of the files read for
// commands: the CI workflow, the README and the verify skill's notes.
var sources = []string{".github/workflows/ci.yml", "README.md", ".*/skills/verify/SKILL.md"}

var (
	// assign is a double-quoted variable assignment opening a line; its
	// value may span lines.
	assign = regexp.MustCompile(`(?m)^[ \t]*([A-Za-z_]\w*)="([^"]*)"`)
	varRef = regexp.MustCompile(`\$\{?(\w+)\}?`)
)

// Invocation is one documented command line of a binary.
type Invocation struct {
	Where string // file:line
	Args  []string
}

// Invocations returns the command lines of binary (a cmd/ directory name)
// in the sources under the module root.
func Invocations(t testing.TB, root, binary string) []Invocation {
	t.Helper()
	var out []Invocation
	for _, glob := range sources {
		paths, _ := filepath.Glob(filepath.Join(root, glob)) // the patterns are well-formed
		if len(paths) != 1 {
			t.Fatalf("%d files match %s, want 1", len(paths), glob)
		}
		buf, err := os.ReadFile(paths[0])
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := filepath.Rel(root, paths[0]) // paths[0] is under root
		out = append(out, invocations(rel, string(buf), binary)...)
	}
	return out
}

// invocations finds the commands of text that run binary: its name, or a
// path ending in it or in "-" + name, opening a line or following a `;`,
// `&` or `|`, optionally after `go run` or `timeout [-s SIG] N`. Line
// continuations are joined. A variable assigned earlier in the text
// (FLAGS="…") expands, any other to nothing. The arguments end at the
// next `;`, `&`, `|`, `>` or ` #`, and a "..." elision is dropped.
func invocations(src, text, binary string) []Invocation {
	command := regexp.MustCompile(`^(?:.*[;&|][ \t]*|[ \t]*)(?:(?:go run|timeout (?:-s \w+ )?\d+) )?(?:\S*[/-])?` +
		regexp.QuoteMeta(binary) + `(?:[ \t]+([^;&|>]*)|$)`)
	joined := strings.ReplaceAll(text, "\\\n", "  ") // same length: offsets still index text
	assigns := assign.FindAllStringSubmatchIndex(joined, -1)
	vars := map[string]string{}
	var out []Invocation
	off := 0
	for _, line := range strings.Split(joined, "\n") {
		for ; len(assigns) > 0 && assigns[0][0] < off; assigns = assigns[1:] {
			a := assigns[0]
			vars[joined[a[2]:a[3]]] = strings.Join(strings.Fields(joined[a[4]:a[5]]), " ")
		}
		where := fmt.Sprintf("%s:%d", src, 1+strings.Count(text[:off], "\n"))
		off += len(line) + 1
		m := command.FindStringSubmatch(line)
		if m == nil || strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		rest, _, _ := strings.Cut(m[1], " #")
		rest = varRef.ReplaceAllStringFunc(rest, func(r string) string { return vars[varRef.FindStringSubmatch(r)[1]] })
		args := []string{}
		for _, a := range strings.Fields(rest) {
			if a != "..." {
				args = append(args, a)
			}
		}
		out = append(out, Invocation{where, args})
	}
	return out
}

// Parse parses args on fs quietly and fails unless every argument is a flag:
// none of this module's binaries takes positional arguments.
func Parse(fs *flag.FlagSet, args []string) error {
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil {
		return err
	}
	return core.CheckArgs(fs)
}

// Defaults lists every flag defined on fs as name=default, in name order.
func Defaults(fs *flag.FlagSet) string {
	var kv []string
	fs.VisitAll(func(f *flag.Flag) { kv = append(kv, f.Name+"="+f.DefValue) })
	return strings.Join(kv, " ")
}
