package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ErrCmp enforces the error-discipline half of PR 1's contract: sentinel
// errors (ps.ErrGatherFailed, serve.ErrInvalidContext, io.EOF, …) travel
// on wrap chains, so identity must be tested with errors.Is/errors.As.
// It reports:
//
//   - == or != between an error value and a package-level error variable
//     (comparisons against nil stay legal);
//   - == or != on the result of err.Error() — matching on message text;
//   - strings.Contains / HasPrefix / HasSuffix applied to err.Error().
var ErrCmp = &Analyzer{
	Name: "errcmp",
	Doc: "sentinel errors must be compared with errors.Is/errors.As, " +
		"never == or message matching",
	run: runErrCmp,
}

func runErrCmp(pass *pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					pass.checkErrCompare(n)
				}
			case *ast.CallExpr:
				pass.checkStringMatch(n)
			}
			return true
		})
	}
}

func (p *pass) checkErrCompare(be *ast.BinaryExpr) {
	if p.isNil(be.X) || p.isNil(be.Y) {
		return
	}
	if p.isSentinelError(be.X) || p.isSentinelError(be.Y) {
		p.reportf(be.OpPos, "sentinel error compared with %s: use errors.Is", be.Op)
		return
	}
	if p.isErrorMessageCall(be.X) || p.isErrorMessageCall(be.Y) {
		p.reportf(be.OpPos, "error message compared with %s: use errors.Is on the sentinel instead", be.Op)
	}
}

// checkStringMatch flags strings.Contains/HasPrefix/HasSuffix over an
// err.Error() result.
func (p *pass) checkStringMatch(call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	pkgIdent, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pkgName, ok := p.TypesInfo.Uses[pkgIdent].(*types.PkgName)
	if !ok || pkgName.Imported().Path() != "strings" {
		return
	}
	switch sel.Sel.Name {
	case "Contains", "HasPrefix", "HasSuffix", "EqualFold":
	default:
		return
	}
	for _, arg := range call.Args {
		leaked := false
		ast.Inspect(arg, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok && p.isErrorMessageCall(c) {
				leaked = true
			}
			return !leaked
		})
		if leaked {
			p.reportf(call.Pos(), "matching on err.Error() text: use errors.Is/errors.As on the sentinel instead")
			return
		}
	}
}

func (p *pass) isNil(e ast.Expr) bool {
	tv, ok := p.TypesInfo.Types[e]
	return ok && tv.IsNil()
}

// isSentinelError reports whether e references a package-level variable of
// type error — the sentinel pattern.
func (p *pass) isSentinelError(e ast.Expr) bool {
	var obj types.Object
	switch e := e.(type) {
	case *ast.Ident:
		obj = p.TypesInfo.Uses[e]
	case *ast.SelectorExpr:
		obj = p.TypesInfo.Uses[e.Sel]
	default:
		return false
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	if v.Parent() == nil || v.Parent() != v.Pkg().Scope() {
		return false // not package-level
	}
	return isErrorType(v.Type())
}

// isErrorMessageCall reports whether e is a call of the error interface's
// Error method (or a method named Error() string on an error type).
func (p *pass) isErrorMessageCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Error" || len(call.Args) != 0 {
		return false
	}
	tv, ok := p.TypesInfo.Types[sel.X]
	if !ok {
		return false
	}
	return isErrorType(tv.Type) || types.Implements(tv.Type, errorInterface())
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

func errorInterface() *types.Interface {
	return types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
}
