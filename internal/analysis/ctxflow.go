package analysis

import "go/types"

// CtxFlow enforces the PR 1 cancellation contract interprocedurally:
//
//  1. Library code must not mint its own context: every call to
//     context.Background() or context.TODO() outside cmd/ and internal/bench
//     needs a line //elrec:rootctx annotation declaring it an audited root
//     (a nil-ctx compatibility default, a detached background janitor).
//  2. Exported entry points of the blocking-surface packages (ps, distps,
//     serve) that may block on in-process coordination — channel
//     operations, time.Sleep, WaitGroup waits, transitively through the
//     call graph — must accept a context.Context, so callers can cancel
//     them. Network I/O alone does not trigger the requirement: socket
//     calls are deadline-governed. Close is exempt (io.Closer's contract
//     has no context). A deliberate exception carries //elrec:rootctx on
//     the function's doc comment.
//
// Check 2 holds only where the scope table's ctxEntryRule row admits the
// package.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "exported blocking entry points must accept context; no context.Background in library code",
	run:  runCtxFlow,
}

func runCtxFlow(pass *pass) {
	facts := pass.prog.facts()
	entry := pass.inScope(ctxEntryRule)
	for _, n := range pass.prog.nodes {
		if n.pkg != pass.Package {
			continue
		}
		// Check 1: context.Background()/TODO() in library code.
		for _, ec := range n.external {
			fn := ec.fn
			if fn.Pkg() == nil || fn.Pkg().Path() != "context" {
				continue
			}
			if fn.Name() != "Background" && fn.Name() != "TODO" {
				continue
			}
			if _, ok := pass.prog.directive(ec.call, "rootctx"); ok {
				continue
			}
			pass.reportf(ec.call.Pos(), "context.%s() in library code: accept the caller's context (or annotate //elrec:rootctx <reason> for an audited root)", fn.Name())
		}

		// Check 2: exported blocking entry points must accept ctx.
		if !entry || !n.decl.Name.IsExported() || !exportedReceiver(n.obj) {
			continue
		}
		if n.decl.Name.Name == "Close" {
			continue // io.Closer's contract has no context parameter
		}
		bf := facts.block[n]
		if bf.kind&blockChan == 0 || hasContextParam(n.obj) {
			continue
		}
		if _, ok := pass.prog.directive(n.decl, "rootctx"); ok {
			continue
		}
		pass.reportf(n.decl.Name.Pos(), "exported %s may block (%s) but does not accept a context.Context", n.displayName(), bf.witness)
	}
}

// exportedReceiver reports whether fn is a plain function or a method on
// an exported named type — methods of unexported types are not API.
func exportedReceiver(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return true
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return named.Obj().Exported()
}

// hasContextParam reports whether any parameter of fn is context.Context.
func hasContextParam(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
