package tensor

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// textSymbol matches an assembly function's TEXT line and captures its name.
var textSymbol = regexp.MustCompile(`(?m)^TEXT ·(\w+)\(SB\)`)

// TestAssemblyInventoryMatchesDesignTable: the rows of DESIGN.md §12's
// assembly table are the TEXT symbols of this package's *_amd64.s files, each
// once, with every column filled in. A kernel cannot be added without a row
// saying which tier it is, what holds it to its oracle and why it stays, and
// a deleted one cannot leave its row behind.
func TestAssemblyInventoryMatchesDesignTable(t *testing.T) {
	files, err := filepath.Glob("*_amd64.s")
	if err != nil || len(files) == 0 {
		t.Fatalf("no *_amd64.s files: %v", err)
	}
	var declared []string
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range textSymbol.FindAllStringSubmatch(string(src), -1) {
			declared = append(declared, m[1])
		}
	}

	doc, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := strings.Cut(string(doc), "\n## 12. ")
	if !ok {
		t.Fatal("DESIGN.md has no section 12")
	}
	sec, _, _ = strings.Cut(sec, "\n## ")
	_, table, ok := strings.Cut(sec, "\n| symbol |")
	if !ok {
		t.Fatal("DESIGN.md §12 has no assembly table")
	}
	rows := map[string]int{} // the table's rows by symbol
	for _, line := range strings.Split(table, "\n")[2:] {
		if !strings.HasPrefix(line, "| `") {
			break
		}
		cells := strings.Split(strings.Trim(line, "| "), " | ")
		name, _, _ := strings.Cut(strings.TrimPrefix(cells[0], "`"), "`")
		if len(cells) != 5 || slices.Contains(cells, "") {
			t.Errorf("DESIGN.md §12's row for %s does not fill its five columns: %q", name, line)
		}
		rows[name]++
	}
	for _, name := range declared {
		if rows[name] != 1 {
			t.Errorf("TEXT ·%s has %d rows in DESIGN.md §12's assembly table, want 1", name, rows[name])
		}
	}
	for name := range rows {
		if !slices.Contains(declared, name) {
			t.Errorf("DESIGN.md §12's assembly table lists %s, which no *_amd64.s file declares", name)
		}
	}
}
