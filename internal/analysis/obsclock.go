package analysis

import (
	"go/ast"
	"go/types"
)

// ObsClock funnels every wall-clock read through the observability layer's
// injected clock: outside internal/obs and the command binaries (see
// Applies), calling time.Now or time.Since directly is forbidden — library
// code must measure against an obs.Clock so tests can drive timing
// deterministically and the determinism contract ("wall time never
// influences numeric results") stays auditable at one choke point. The
// escape hatch is //elrec:wallclock <reason> for the rare site where raw
// wall time is genuinely wanted.
var ObsClock = &Analyzer{
	Name: "obsclock",
	Doc: "forbids direct time.Now/time.Since outside internal/obs and the " +
		"cmds: measure against an injected obs.Clock",
	run: runObsClock,
}

func runObsClock(pass *pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkgIdent, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pkgName, ok := pass.TypesInfo.Uses[pkgIdent].(*types.PkgName)
			if !ok || pkgName.Imported().Path() != "time" {
				return true
			}
			if sel.Sel.Name != "Now" && sel.Sel.Name != "Since" {
				return true
			}
			if d, ok := pass.prog.directive(call, "wallclock"); ok {
				if d.args == "" {
					pass.reportf(call.Pos(), "//elrec:wallclock annotation requires a reason")
				}
				return true
			}
			pass.reportf(call.Pos(), "direct time.%s outside internal/obs: measure against an injected obs.Clock (or annotate //elrec:wallclock <reason>)", sel.Sel.Name)
			return true
		})
	}
}
