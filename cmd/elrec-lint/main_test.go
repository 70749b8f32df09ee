package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestListMatchesDesignTable: the analyzers -list prints are the rows of
// DESIGN.md §10's analyzer table, in order, so adding or removing an
// analyzer cannot leave the table stale.
func TestListMatchesDesignTable(t *testing.T) {
	var out bytes.Buffer
	printSuite(&out, analysis.Suite())
	var listed []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		listed = append(listed, strings.Fields(line)[0])
	}

	doc, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := strings.Cut(string(doc), "\n## 10. ")
	if !ok {
		t.Fatal("DESIGN.md has no section 10")
	}
	sec, _, _ = strings.Cut(sec, "\n## ")
	_, table, ok := strings.Cut(sec, "\n| analyzer |")
	if !ok {
		t.Fatal("DESIGN.md §10 has no analyzer table")
	}
	var documented []string
	for _, line := range strings.Split(table, "\n")[2:] {
		if !strings.HasPrefix(line, "| `") {
			break
		}
		name, _, _ := strings.Cut(strings.TrimPrefix(line, "| `"), "`")
		documented = append(documented, name)
	}
	if !reflect.DeepEqual(listed, documented) {
		t.Fatalf("elrec-lint -list names %v, DESIGN.md §10's table %v", listed, documented)
	}
}
