package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The program's call graph is module-local: static calls and method sets
// are resolved through go/types; calls through interface methods and func
// values are not edges. Per-function facts (facts.go) propagate over it
// bottom-up in strongly-connected-component order. The lockorder and
// ctxflow analyzers are built on it.

// funcNode is one module function with a body: a call-graph vertex.
// Function literals are attributed to their enclosing declaration — a
// closure's statements belong to the function that wrote it — except that
// subtrees handed to a goroutine (a `go` statement, or a function literal
// passed to a panic-converting spawn helper) are marked asynchronous, so
// analyzers can exclude work that does not run on the caller's own
// control flow.
type funcNode struct {
	obj  *types.Func
	decl *ast.FuncDecl
	pkg  *Package

	// calls are the statically resolved module-internal call sites, in
	// source order. external records the calls into packages analyzed
	// signature-only (the standard library).
	calls    []callSite
	external []externCall
}

// callSite is one statically resolved call to another module function.
// async marks a call that runs on a spawned goroutine rather than the
// caller's own control flow.
type callSite struct {
	callee *funcNode
	call   *ast.CallExpr
	async  bool
}

// externCall is a call whose target has no analyzable body here (standard
// library, signature-only dependency).
type externCall struct {
	fn    *types.Func
	call  *ast.CallExpr
	async bool
}

// displayName renders the function compactly for diagnostics:
// (*tt.Table).Lookup, tensor.ParallelFor.
func (n *funcNode) displayName() string {
	full := n.obj.FullName()
	full = strings.ReplaceAll(full, modulePath+"/internal/", "")
	full = strings.ReplaceAll(full, modulePath+"/", "")
	return full
}

// program is the whole loaded module every pass sees: its call graph, the
// per-function facts over it and the //elrec: directive index.
type program struct {
	fset  *token.FileSet
	byObj map[*types.Func]*funcNode
	// nodes in package order (Load sorts by import path), then source
	// order.
	nodes []*funcNode
	// directives indexes each file's //elrec: comments by line.
	directives map[*token.File]map[int][]directive
	memo       *facts // built on first use by facts()
}

// buildProgram links the packages (all type-checked by one shared loader,
// so *types.Func identities agree across package boundaries) into a call
// graph.
func buildProgram(pkgs []*Package) *program {
	p := &program{
		byObj:      map[*types.Func]*funcNode{},
		directives: map[*token.File]map[int][]directive{},
	}
	for _, pkg := range pkgs {
		p.fset = pkg.Fset
		for _, file := range pkg.Files {
			p.directives[pkg.Fset.File(file.Pos())] = parseDirectives(pkg.Fset, file)
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, ok := pkg.TypesInfo.Defs[fn.Name].(*types.Func)
				if !ok || fn.Body == nil { // a body-less declaration is an assembly routine
					continue
				}
				node := &funcNode{obj: obj, decl: fn, pkg: pkg}
				p.byObj[obj] = node
				p.nodes = append(p.nodes, node)
			}
		}
	}
	for _, node := range p.nodes {
		p.resolveCalls(node)
	}
	return p
}

// resolveCalls fills node's call lists from its body.
func (p *program) resolveCalls(node *funcNode) {
	info := node.pkg.TypesInfo
	walkAsync(node.decl.Body, func(n ast.Node, async bool) bool {
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

func (p *program) addCall(node *funcNode, obj *types.Func, call *ast.CallExpr, async bool) {
	if target, ok := p.byObj[obj]; ok {
		node.calls = append(node.calls, callSite{callee: target, call: call, async: async})
		return
	}
	node.external = append(node.external, externCall{fn: obj, call: call, async: async})
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

// sccs returns the strongly connected components of the graph over nodes
// (visited in the given order) and succ, by Tarjan's algorithm: in reverse
// topological order of the condensation, so a component comes after every
// component it reaches. Over the call graph that is callee-first, the
// order fact propagation needs.
func sccs[T comparable](nodes []T, succ func(T) []T) [][]T {
	index := map[T]int{}
	low := map[T]int{}
	onStack := map[T]bool{}
	var stack []T
	var out [][]T
	var strongconnect func(v T)
	strongconnect = func(v T) {
		index[v] = len(index)
		low[v] = index[v]
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range succ(v) {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				low[v] = min(low[v], low[w])
			} else if onStack[w] {
				low[v] = min(low[v], index[w])
			}
		}
		if low[v] == index[v] {
			var scc []T
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			out = append(out, scc)
		}
	}
	for _, n := range nodes {
		if _, seen := index[n]; !seen {
			strongconnect(n)
		}
	}
	return out
}
