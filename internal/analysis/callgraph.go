package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file grows the framework from an intraprocedural AST walker into a
// facts-based interprocedural engine: a module-local call graph (static
// calls and method sets resolved through go/types; calls through interface
// methods and func values are not edges) over which analyzers propagate
// per-function facts bottom-up in strongly-connected-component order. The
// lockorder and ctxflow analyzers are built on it.

// FuncNode is one module function with a body: a call-graph vertex.
// Function literals are attributed to their enclosing declaration — a
// closure's statements belong to the function that wrote it — except that
// subtrees handed to a goroutine (a `go` statement, or a function literal
// passed to a panic-converting spawn helper) are marked asynchronous, so
// analyzers can exclude work that does not run on the caller's own
// control flow.
type FuncNode struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	File *ast.File

	// Calls are the statically resolved module-internal call sites, in
	// source order. External records the calls into packages analyzed
	// signature-only (the standard library).
	Calls    []CallSite
	External []ExternCall
}

// CallSite is one statically resolved call to another module function.
type CallSite struct {
	Callee *FuncNode
	Call   *ast.CallExpr
	// Async marks a call that runs on a spawned goroutine rather than the
	// caller's own control flow.
	Async bool
}

// ExternCall is a call whose target has no analyzable body here (standard
// library, signature-only dependency).
type ExternCall struct {
	Fn    *types.Func
	Call  *ast.CallExpr
	Async bool
}

// DisplayName renders the function compactly for diagnostics:
// (*tt.Table).Lookup, tensor.ParallelFor.
func (n *FuncNode) DisplayName() string {
	full := n.Obj.FullName()
	full = strings.ReplaceAll(full, ModulePath+"/internal/", "")
	full = strings.ReplaceAll(full, ModulePath+"/", "")
	return full
}

// Program is the whole-module view interprocedural analyzers run on.
type Program struct {
	Packages []*Package
	Fset     *token.FileSet
	ByObj    map[*types.Func]*FuncNode
	// Nodes in deterministic order (package path, then position).
	Nodes []*FuncNode

	directives map[*ast.File]map[int][]directive
	facts      *Facts
}

// BuildProgram links the packages (all type-checked by one shared loader,
// so *types.Func identities agree across package boundaries) into a call
// graph.
func BuildProgram(pkgs []*Package) *Program {
	p := &Program{
		ByObj:      map[*types.Func]*FuncNode{},
		directives: map[*ast.File]map[int][]directive{},
	}
	p.Packages = append(p.Packages, pkgs...)
	sort.Slice(p.Packages, func(i, j int) bool { return p.Packages[i].PkgPath < p.Packages[j].PkgPath })
	if len(pkgs) > 0 {
		p.Fset = pkgs[0].Fset
	}
	for _, pkg := range p.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, ok := pkg.TypesInfo.Defs[fn.Name].(*types.Func)
				if !ok || fn.Body == nil { // a body-less declaration is an assembly routine
					continue
				}
				node := &FuncNode{Obj: obj, Decl: fn, Pkg: pkg, File: file}
				p.ByObj[obj] = node
				p.Nodes = append(p.Nodes, node)
			}
		}
	}
	for _, node := range p.Nodes {
		p.resolveCalls(node)
	}
	return p
}

// resolveCalls fills node's call lists from its body.
func (p *Program) resolveCalls(node *FuncNode) {
	info := node.Pkg.TypesInfo
	walkAsync(node.Decl.Body, func(n ast.Node, async bool) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fun := ast.Unparen(call.Fun)
		if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
			return true // conversion, not a call
		}
		// Builtins are inspected syntactically by analyzers; an immediately
		// invoked literal's body is already part of this node's subtree; a
		// call through a func value or an interface method is no edge.
		switch fun := fun.(type) {
		case *ast.Ident:
			if obj, ok := info.Uses[fun].(*types.Func); ok {
				p.addCall(node, obj, call, async)
			}
		case *ast.SelectorExpr:
			obj, ok := info.Uses[fun.Sel].(*types.Func)
			if !ok {
				return true
			}
			if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal && types.IsInterface(sel.Recv().Underlying()) {
				return true
			}
			p.addCall(node, obj, call, async)
		}
		return true
	})
}

func (p *Program) addCall(node *FuncNode, obj *types.Func, call *ast.CallExpr, async bool) {
	if target, ok := p.ByObj[obj]; ok {
		node.Calls = append(node.Calls, CallSite{Callee: target, Call: call, Async: async})
		return
	}
	node.External = append(node.External, ExternCall{Fn: obj, Call: call, Async: async})
}

// walkAsync walks root in source order, reporting for each node whether it
// executes asynchronously with respect to the enclosing function: inside a
// `go` statement, or inside a function literal passed to a spawn helper
// (the project's panic-converting goroutine entry, enforced by gospawn).
func walkAsync(root ast.Node, fn func(n ast.Node, async bool) bool) {
	var asyncRanges []asyncRange
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			asyncRanges = append(asyncRanges, asyncRange{n.Call.Pos(), n.Call.End()})
		case *ast.CallExpr:
			if isSpawnCall(n) {
				for _, arg := range n.Args {
					if lit, ok := arg.(*ast.FuncLit); ok {
						asyncRanges = append(asyncRanges, asyncRange{lit.Pos(), lit.End()})
					}
				}
			}
		}
		return true
	})
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		async := false
		for _, r := range asyncRanges {
			if r.lo <= n.Pos() && n.Pos() < r.hi {
				async = true
				break
			}
		}
		return fn(n, async)
	})
}

type asyncRange struct{ lo, hi token.Pos }

// isSpawnCall reports whether call invokes a function named spawn (the
// gospawn-enforced goroutine entry helper).
func isSpawnCall(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "spawn"
	case *ast.SelectorExpr:
		return fun.Sel.Name == "spawn"
	}
	return false
}

// SCCs returns the call graph's strongly connected components in
// bottom-up (callee-first) order: by the time a component is visited,
// every component it calls into has already been visited. Fact
// propagation iterates this order once.
func (p *Program) SCCs() [][]*FuncNode {
	// Tarjan, iterative over the deterministic node order.
	index := map[*FuncNode]int{}
	low := map[*FuncNode]int{}
	onStack := map[*FuncNode]bool{}
	var stack []*FuncNode
	var sccs [][]*FuncNode
	next := 0

	var strongconnect func(v *FuncNode)
	strongconnect = func(v *FuncNode) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, cs := range v.Calls {
			w := cs.Callee
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []*FuncNode
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, n := range p.Nodes {
		if _, seen := index[n]; !seen {
			strongconnect(n)
		}
	}
	// Tarjan emits components in reverse topological order of the
	// condensation — exactly callee-first.
	return sccs
}

// fileFor locates the package and file containing pos.
func (p *Program) fileFor(pos token.Pos) (*Package, *ast.File) {
	for _, pkg := range p.Packages {
		for _, f := range pkg.Files {
			if f.FileStart <= pos && pos < f.FileEnd {
				return pkg, f
			}
		}
	}
	return nil, nil
}

// LineDirective reports the //elrec:<name> directive annotating the line
// of pos (same line or the line above), program-wide.
func (p *Program) LineDirective(pos token.Pos, name string) (directive, bool) {
	_, file := p.fileFor(pos)
	if file == nil {
		return directive{}, false
	}
	byLine, ok := p.directives[file]
	if !ok {
		byLine = parseDirectives(p.Fset, file)
		p.directives[file] = byLine
	}
	line := p.Fset.Position(pos).Line
	for _, l := range []int{line, line - 1} {
		for _, d := range byLine[l] {
			if d.name == name {
				return d, true
			}
		}
	}
	return directive{}, false
}

// FuncDirective reports the //elrec:<name> directive in node's doc
// comment.
func (p *Program) FuncDirective(n *FuncNode, name string) (directive, bool) {
	return docDirective(n.Decl.Doc, name)
}

// docDirective scans a doc comment group for //elrec:<name>.
func docDirective(doc *ast.CommentGroup, name string) (directive, bool) {
	if doc == nil {
		return directive{}, false
	}
	for _, c := range doc.List {
		text := strings.TrimPrefix(c.Text, "//")
		if !strings.HasPrefix(text, DirectivePrefix) {
			continue
		}
		dname, args, _ := strings.Cut(strings.TrimPrefix(text, DirectivePrefix), " ")
		if dname == name {
			return directive{name: dname, args: strings.TrimSpace(args)}, true
		}
	}
	return directive{}, false
}

// modulePackage reports whether pkgPath belongs to this module. Packages
// loaded standalone by the analysistest harness (import path with no
// slash, outside the module) are treated as in scope by the analyzers'
// package filters, so golden packages exercise the same checks.
func modulePackage(pkgPath string) bool {
	return pkgPath == ModulePath || strings.HasPrefix(pkgPath, ModulePath+"/")
}
