package analysis

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package of the module under
// analysis.
type Package struct {
	PkgPath   string
	Fset      *token.FileSet
	Files     []*ast.File
	TypesInfo *types.Info
}

// Loader parses and type-checks packages without the go/packages driver:
// `go list -deps -json` supplies the file sets and a topological order,
// and go/types checks everything from source. Standard-library
// dependencies are checked with IgnoreFuncBodies (only their exported
// shape matters), so a full-module load stays fast and fully offline.
type Loader struct {
	fset    *token.FileSet
	checked map[string]*types.Package

	// parsed caches files by absolute path; guarded by mu so the
	// pre-parse worker pool and on-demand parsing can share it.
	mu     sync.Mutex
	parsed map[string]*ast.File
}

// NewLoader returns an empty loader. Loaders cache type-checked
// dependencies, so one loader should be reused across calls.
func NewLoader() *Loader {
	return &Loader{
		fset:    token.NewFileSet(),
		checked: map[string]*types.Package{},
		parsed:  map[string]*ast.File{},
	}
}

// listedPkg is the subset of `go list -json` output the loader consumes.
type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	Error      *struct{ Err string }
}

// goList runs `go list -deps -json` in dir and decodes the JSON stream.
// CGO is disabled so every package resolves to its pure-Go file set.
func goList(dir string, patterns []string) ([]*listedPkg, error) {
	args := append([]string{"list", "-e", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("analysis: go list %v: %v\n%s", patterns, err, stderr.String())
	}
	dec := json.NewDecoder(&stdout)
	var out []*listedPkg
	for {
		p := new(listedPkg)
		if err := dec.Decode(p); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		out = append(out, p)
	}
	return out, nil
}

// importerFor adapts the loader's cache to types.Importer.
type importerFor struct{ l *Loader }

func (im importerFor) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := im.l.checked[path]; ok {
		return pkg, nil
	}
	// Fall back to on-demand loading: LoadDir-style checks reach std
	// packages that were not part of a prior go list closure.
	if err := im.l.ensureDeps(path); err != nil {
		return nil, err
	}
	if pkg, ok := im.l.checked[path]; ok {
		return pkg, nil
	}
	return nil, fmt.Errorf("analysis: import %q not loaded", path)
}

// ensureDeps loads and type-checks path and its transitive dependencies
// (signatures only).
func (l *Loader) ensureDeps(path string) error {
	listed, err := goList(".", []string{path})
	if err != nil {
		return err
	}
	for _, lp := range listed {
		if _, ok := l.checked[lp.ImportPath]; ok || lp.ImportPath == "unsafe" {
			continue
		}
		if _, err := l.checkListed(lp, true, nil); err != nil {
			return err
		}
	}
	return nil
}

// parseFile parses one file, consulting the loader's cache first. The
// shared token.FileSet serializes AddFile internally, so concurrent
// callers only need the cache lock.
func (l *Loader) parseFile(path string) (*ast.File, error) {
	l.mu.Lock()
	f, ok := l.parsed[path]
	l.mu.Unlock()
	if ok {
		return f, nil
	}
	f, err := parser.ParseFile(l.fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	if prev, ok := l.parsed[path]; ok {
		f = prev // lost a benign race; keep one canonical tree
	} else {
		l.parsed[path] = f
	}
	l.mu.Unlock()
	return f, nil
}

// parseFiles parses the named files of one package directory.
func (l *Loader) parseFiles(dir string, names []string) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := l.parseFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// preparse parses every file of the listed packages on a worker pool.
// Type-checking must stay sequential in dependency order, but parsing —
// which dominates a cold load of the module plus its std closure — is
// embarrassingly parallel. Errors are not reported here; the sequential
// parseFiles pass re-encounters them with full package context.
func (l *Loader) preparse(listed []*listedPkg) {
	var paths []string
	for _, lp := range listed {
		if lp.Error != nil || lp.ImportPath == "unsafe" {
			continue
		}
		if _, done := l.checked[lp.ImportPath]; done {
			continue
		}
		for _, name := range lp.GoFiles {
			paths = append(paths, filepath.Join(lp.Dir, name))
		}
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for _, path := range paths {
		wg.Add(1)
		sem <- struct{}{}
		go func(path string) {
			defer wg.Done()
			defer func() { <-sem }()
			_, _ = l.parseFile(path) // error re-surfaces in parseFiles
		}(path)
	}
	wg.Wait()
}

// newInfo allocates a fully populated types.Info.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// checkListed type-checks one go-list entry. With sigOnly set, function
// bodies are skipped (dependency mode); otherwise full bodies are checked
// and info receives the results.
func (l *Loader) checkListed(lp *listedPkg, sigOnly bool, info *types.Info) (*types.Package, error) {
	if lp.Error != nil {
		return nil, fmt.Errorf("analysis: go list: %s: %s", lp.ImportPath, lp.Error.Err)
	}
	files, err := l.parseFiles(lp.Dir, lp.GoFiles)
	if err != nil {
		return nil, err
	}
	cfg := &types.Config{
		Importer:         importerFor{l},
		IgnoreFuncBodies: sigOnly,
		Sizes:            types.SizesFor("gc", runtime.GOARCH),
	}
	if sigOnly {
		// Standard-library sources occasionally trip body-level checks the
		// compiler handles specially; with bodies ignored these cannot
		// occur, but keep a tolerant error handler for belt and braces.
		cfg.Error = func(error) {}
	}
	pkg, err := cfg.Check(lp.ImportPath, l.fset, files, info)
	if err != nil && !sigOnly {
		return nil, fmt.Errorf("analysis: type-checking %s: %v", lp.ImportPath, err)
	}
	if pkg == nil {
		return nil, fmt.Errorf("analysis: type-checking %s produced no package", lp.ImportPath)
	}
	l.checked[lp.ImportPath] = pkg
	return pkg, nil
}

// Load type-checks the packages matching the go-list patterns (run from
// dir) and returns the non-standard-library ones — the module's own
// packages — with full syntax and type information, sorted by import
// path.
func (l *Loader) Load(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	l.preparse(listed)
	var out []*Package
	for _, lp := range listed { // dependency order: deps precede dependents
		if lp.ImportPath == "unsafe" {
			continue
		}
		if _, ok := l.checked[lp.ImportPath]; ok && lp.Standard {
			continue
		}
		if lp.Standard {
			if _, err := l.checkListed(lp, true, nil); err != nil {
				return nil, err
			}
			continue
		}
		info := newInfo()
		if _, err := l.checkListed(lp, false, info); err != nil {
			return nil, err
		}
		files, _ := l.parseFiles(lp.Dir, lp.GoFiles) // parsed and cached by checkListed
		out = append(out, &Package{PkgPath: lp.ImportPath, Fset: l.fset, Files: files, TypesInfo: info})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PkgPath < out[j].PkgPath })
	return out, nil
}

// LoadDir parses and type-checks the single package rooted at dir (outside
// the module build, e.g. an analysistest testdata package). Imports are
// resolved on demand: module-internal ones via go list from the current
// directory, standard-library ones from GOROOT source.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	files, err := l.parseFiles(dir, names)
	if err != nil {
		return nil, err
	}
	info := newInfo()
	cfg := &types.Config{
		Importer: importerFor{l},
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	pkgPath := filepath.Base(dir)
	if _, err := cfg.Check(pkgPath, l.fset, files, info); err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %v", dir, err)
	}
	return &Package{PkgPath: pkgPath, Fset: l.fset, Files: files, TypesInfo: info}, nil
}

// enforce importer interface compliance at compile time.
var _ types.Importer = importerFor{}
