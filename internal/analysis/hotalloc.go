package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotAlloc proves the paper's zero-allocation claim for the training hot
// path statically: every function transitively reachable from an
// //elrec:hotpath root (TT Lookup/Update, the gemm kernels, ParallelFor
// bodies, the serving batcher) must be free of allocation sites. The
// AllocsPerRun tests check the same property at runtime for the inputs
// they run; this analyzer checks it for every path, ahead of time.
//
// //elrec:coldpath on a function's doc comment removes it (and everything
// only reachable through it) from the hot region — the audited escape
// hatch for warm-up growth and error paths. On a single line it exempts
// one site or one call edge. Sites inside a panic(...) argument are
// exempt automatically: a hot path that is about to crash may allocate
// its message. A body-less function of this module (an assembly stub) is
// an allocation-free leaf provided it is declared //go:noescape.
var HotAlloc = &Analyzer{
	Name:       "hotalloc",
	Doc:        "functions reachable from //elrec:hotpath roots must not allocate",
	RunProgram: runHotAlloc,
}

// hotAllocAllowedPkgs are external packages whose calls are permitted on
// the hot path: pure math, synchronization (sync.Pool reuse is the point
// of the arenas), atomics and runtime introspection.
var hotAllocAllowedPkgs = map[string]bool{
	"math":        true,
	"sync":        true,
	"sync/atomic": true,
	"runtime":     true,
}

func runHotAlloc(pass *Pass) error {
	prog := pass.Program

	// BFS from hotpath roots over non-async static call edges, skipping
	// coldpath functions and coldpath-annotated call sites. parent gives
	// the shortest root chain for diagnostics.
	parent := map[*FuncNode]*FuncNode{}
	rootOf := map[*FuncNode]*FuncNode{}
	var queue []*FuncNode
	for _, n := range prog.Nodes {
		if _, ok := prog.FuncDirective(n, "hotpath"); ok {
			parent[n] = nil
			rootOf[n] = n
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		checkHotBody(pass, n, hotChain(n, parent, rootOf))
		for _, cs := range n.Calls {
			if cs.Async {
				continue
			}
			if _, cold := prog.LineDirective(cs.Call.Pos(), "coldpath"); cold {
				continue
			}
			callee := cs.Callee
			if _, cold := prog.FuncDirective(callee, "coldpath"); cold {
				continue
			}
			if _, seen := rootOf[callee]; seen {
				continue
			}
			parent[callee] = n
			rootOf[callee] = rootOf[n]
			queue = append(queue, callee)
		}
	}
	return nil
}

// hotChain renders how n was reached: "" for a root itself, otherwise
// "reachable from hot-path root R via A → B".
func hotChain(n *FuncNode, parent, rootOf map[*FuncNode]*FuncNode) string {
	if parent[n] == nil {
		return ""
	}
	var hops []string
	for at := n; at != nil; at = parent[at] {
		hops = append(hops, at.DisplayName())
	}
	// hops is n..root; reverse and drop n itself from the "via" list.
	root := hops[len(hops)-1]
	via := hops[1 : len(hops)-1]
	for i, j := 0, len(via)-1; i < j; i, j = i+1, j-1 {
		via[i], via[j] = via[j], via[i]
	}
	s := "reachable from hot-path root " + root
	if len(via) > 0 {
		s += " via " + strings.Join(via, " → ")
	}
	return s
}

// checkHotBody reports every allocation site in n's own body (excluding
// spawned-goroutine subtrees, panic arguments and coldpath-annotated
// lines).
func checkHotBody(pass *Pass, n *FuncNode, chain string) {
	prog := pass.Program
	info := n.Pkg.TypesInfo
	panicRanges := panicArgRanges(info, n.Decl.Body)
	directArgLits := directCallFuncLits(n.Decl.Body)

	report := func(pos token.Pos, what string) {
		if inRanges(panicRanges, pos) {
			return
		}
		if _, ok := prog.LineDirective(pos, "coldpath"); ok {
			return
		}
		msg := what + " in " + n.DisplayName()
		if chain != "" {
			msg += " (" + chain + ")"
		}
		pass.Reportf(pos, "hot path must not allocate: %s", msg)
	}

	walkAsync(n.Decl.Body, func(node ast.Node, async bool) bool {
		if async {
			return false
		}
		switch node := node.(type) {
		case *ast.GoStmt:
			report(node.Pos(), "goroutine spawn")
		case *ast.FuncLit:
			// A literal passed directly to a statically resolved call is
			// analyzed as part of this body (and checked through the call
			// edge if the callee invokes it dynamically); a literal that is
			// stored or returned escapes to the heap.
			if !directArgLits[node] {
				report(node.Pos(), "escaping function literal")
			}
		case *ast.UnaryExpr:
			// &T{...} always heap-allocates on the hot path's terms; a plain
			// value literal T{...} is constructed in place and is fine.
			if node.Op == token.AND {
				if _, ok := ast.Unparen(node.X).(*ast.CompositeLit); ok {
					report(node.Pos(), "heap-allocated composite literal")
				}
			}
		case *ast.CompositeLit:
			if allocatingLiteral(info, node) {
				report(node.Pos(), "slice or map literal")
			}
		case *ast.AssignStmt:
			for _, lhs := range node.Lhs {
				if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && isMapIndex(info, idx) {
					report(lhs.Pos(), "map insert")
				}
			}
		case *ast.IncDecStmt:
			if idx, ok := ast.Unparen(node.X).(*ast.IndexExpr); ok && isMapIndex(info, idx) {
				report(node.Pos(), "map insert")
			}
		case *ast.BinaryExpr:
			if node.Op == token.ADD && isNonConstString(info, node) {
				report(node.Pos(), "string concatenation")
			}
		case *ast.CallExpr:
			checkHotCall(pass, info, node, report)
		}
		return true
	})
}

// checkHotCall classifies one call expression on the hot path: allocating
// builtins, allocating conversions, and calls the graph cannot prove
// allocation-free.
func checkHotCall(pass *Pass, info *types.Info, call *ast.CallExpr, report func(token.Pos, string)) {
	prog := pass.Program
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		checkHotConversion(info, call, tv.Type, report)
		return
	}
	fun := ast.Unparen(call.Fun)
	var obj types.Object
	switch fun := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	case *ast.FuncLit:
		return // immediately invoked: body checked inline
	default:
		report(call.Pos(), "dynamic call (cannot be proven allocation-free)")
		return
	}
	switch obj := obj.(type) {
	case *types.Builtin:
		switch obj.Name() {
		case "make":
			report(call.Pos(), "make")
		case "new":
			report(call.Pos(), "new")
		case "append":
			report(call.Pos(), "append (may grow its backing array)")
		}
	case *types.Func:
		if _, ok := prog.ByObj[obj]; ok {
			return // module function with a body: traversed through the call graph
		}
		if stub, ok := prog.Stubs[obj]; ok {
			// An assembly routine cannot reach the allocator, but without
			// //go:noescape the compiler assumes its pointer arguments
			// escape and moves what they point to onto the heap at the
			// call site.
			if !hasNoescape(stub) {
				report(call.Pos(), "call to assembly stub "+obj.Pkg().Name()+"."+obj.Name()+" declared without //go:noescape (its pointer arguments are forced to the heap)")
			}
			return
		}
		pkg := obj.Pkg()
		if pkg == nil || hotAllocAllowedPkgs[pkg.Path()] {
			return
		}
		report(call.Pos(), "call to "+pkg.Name()+"."+obj.Name()+" (external, cannot be proven allocation-free)")
	default:
		if sel, ok := fun.(*ast.SelectorExpr); ok {
			if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal && types.IsInterface(s.Recv().Underlying()) {
				report(call.Pos(), "interface method call (cannot be proven allocation-free)")
				return
			}
		}
		report(call.Pos(), "dynamic call (cannot be proven allocation-free)")
	}
}

// hasNoescape reports whether a body-less declaration carries the
// //go:noescape directive in its doc comment.
func hasNoescape(decl *ast.FuncDecl) bool {
	if decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		if c.Text == "//go:noescape" {
			return true
		}
	}
	return false
}

// checkHotConversion reports conversions that allocate: concrete value to
// interface, and string ↔ []byte/[]rune copies.
func checkHotConversion(info *types.Info, call *ast.CallExpr, target types.Type, report func(token.Pos, string)) {
	if len(call.Args) != 1 {
		return
	}
	srcTV, ok := info.Types[call.Args[0]]
	if !ok {
		return
	}
	src := srcTV.Type
	if types.IsInterface(target.Underlying()) && !types.IsInterface(src.Underlying()) {
		report(call.Pos(), "conversion to interface")
		return
	}
	if stringByteConversion(src, target) {
		report(call.Pos(), "string conversion (copies the bytes)")
	}
}

// stringByteConversion reports string↔[]byte/[]rune in either direction.
func stringByteConversion(src, dst types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteOrRuneSlice := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune)
	}
	return (isStr(src) && isByteOrRuneSlice(dst)) || (isByteOrRuneSlice(src) && isStr(dst))
}

// allocatingLiteral reports whether a value composite literal allocates:
// slice and map literals build heap backing storage, while struct and array
// value literals are constructed in place (the &T{...} form is handled at
// the enclosing UnaryExpr).
func allocatingLiteral(info *types.Info, lit *ast.CompositeLit) bool {
	tv, ok := info.Types[lit]
	if !ok {
		return false
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice, *types.Map:
		return true
	}
	return false
}

// isMapIndex reports whether idx indexes a map.
func isMapIndex(info *types.Info, idx *ast.IndexExpr) bool {
	tv, ok := info.Types[idx.X]
	if !ok {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// isNonConstString reports whether e is a string-typed expression with no
// compile-time constant value.
func isNonConstString(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Value != nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// panicArgRanges collects the source ranges of panic(...) arguments: a hot
// path that is crashing may allocate its message.
func panicArgRanges(info *types.Info, body *ast.BlockStmt) []asyncRange {
	var out []asyncRange
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			return true
		}
		if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
			out = append(out, asyncRange{call.Lparen, call.Rparen})
		}
		return true
	})
	return out
}

// directCallFuncLits collects function literals appearing directly as
// arguments (or the callee) of call expressions.
func directCallFuncLits(body *ast.BlockStmt) map[*ast.FuncLit]bool {
	out := map[*ast.FuncLit]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
			out[lit] = true
		}
		for _, arg := range call.Args {
			if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
				out[lit] = true
			}
		}
		return true
	})
	return out
}

func inRanges(ranges []asyncRange, pos token.Pos) bool {
	for _, r := range ranges {
		if r.lo <= pos && pos < r.hi {
			return true
		}
	}
	return false
}
