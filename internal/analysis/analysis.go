// Package analysis is a self-contained static-analysis engine plus the
// project-specific analyzers (see Suite) that machine-check invariants no
// runtime test catches a violation of: lock-guarded shared state,
// goroutines born in a spawn helper, errors.Is-based sentinel handling,
// wall-clock reads funnelled through the injected obs.Clock, an acyclic
// lock order and cancellable blocking entry points. It builds with the
// standard library only.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Analyzer describes one static-analysis pass. The driver runs it once per
// package its row of the scope table admits (see Applies).
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the command line.
	Name string
	// Doc is the one-paragraph help text.
	Doc string
	run func(*pass)
}

// pass is one analyzer's run on one package: the package's syntax and type
// information, the whole loaded program (call graph, facts, directives)
// and a diagnostic sink.
type pass struct {
	*Package
	analyzer *Analyzer
	prog     *program
	applies  func(rule, pkgPath string) bool

	diagnostics []Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a diagnostic at pos.
func (p *pass) reportf(pos token.Pos, format string, args ...any) {
	p.diagnostics = append(p.diagnostics, Diagnostic{
		Analyzer: p.analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// inScope reports whether the scope table's row rule admits the package
// under analysis; with no table (the analysistest harness) every row does.
func (p *pass) inScope(rule string) bool {
	return p.applies == nil || p.applies(rule, p.PkgPath)
}

// directive is one parsed //elrec:<name> <args> comment.
type directive struct {
	name string // e.g. "locked", "wallclock", "rootctx"
	args string // trailing free text (reason, mutex name, ...)
}

// directivePrefix introduces the project's analyzer escape-hatch comments:
// //elrec:locked <mu> [reason], //elrec:wallclock <reason>, ...
const directivePrefix = "elrec:"

// parseDirectives indexes every //elrec: comment of f by its line.
func parseDirectives(fset *token.FileSet, f *ast.File) map[int][]directive {
	out := map[int][]directive{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//"+directivePrefix)
			if !ok {
				continue
			}
			name, args, _ := strings.Cut(text, " ")
			line := fset.Position(c.End()).Line
			out[line] = append(out[line], directive{name: name, args: strings.TrimSpace(args)})
		}
	}
	return out
}

// directive returns the //elrec:<name> directive annotating node. A
// function declaration is annotated by a directive anywhere in its doc
// comment; any other node by one on its first line or on the line above
// (the trailing-comment and the preceding-comment styles).
func (p *program) directive(node ast.Node, name string) (directive, bool) {
	tf := p.fset.File(node.Pos())
	byLine := p.directives[tf]
	line := tf.Line(node.Pos())
	lines := []int{line, line - 1}
	if fn, ok := node.(*ast.FuncDecl); ok {
		lines = nil
		if fn.Doc != nil {
			for l := tf.Line(fn.Doc.Pos()); l <= tf.Line(fn.Doc.End()); l++ {
				lines = append(lines, l)
			}
		}
	}
	for _, l := range lines {
		for _, d := range byLine[l] {
			if d.name == name {
				return d, true
			}
		}
	}
	return directive{}, false
}

// RunAnalyzers applies every analyzer to every package that applies admits
// (nil admits all, which is how the analysistest harness runs an analyzer
// on its golden package) and returns the combined diagnostics sorted by
// position. The passes run one after another over one shared program.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer, applies func(rule, pkgPath string) bool) []Diagnostic {
	prog := buildProgram(pkgs)
	var out []Diagnostic
	for _, a := range analyzers {
		for _, pkg := range pkgs {
			if applies != nil && !applies(a.Name, pkg.PkgPath) {
				continue
			}
			p := &pass{Package: pkg, analyzer: a, prog: prog, applies: applies}
			a.run(p)
			out = append(out, p.diagnostics...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if out[i].Analyzer != out[j].Analyzer {
			return out[i].Analyzer < out[j].Analyzer
		}
		return out[i].Message < out[j].Message
	})
	return out
}
