package analysis

import (
	"go/ast"
)

// GoSpawn pins down how long-lived goroutines are born: every `go`
// statement in the package must live inside the package's spawn helper (a
// function named spawn), so no code path starts a goroutine around what
// that helper guarantees. The guarantee is each package's own: ps's helper
// joins the stage's WaitGroup and recovers a panic into the pipeline's
// recorded failure, served's joins Close's drain barrier, and distps's
// recovers a panic and logs it with the goroutine's name and owner.
// RunAnalyzers applies this analyzer to the goroutine-owning packages named
// in its row of the scope table (suite.go).
var GoSpawn = &Analyzer{
	Name: "gospawn",
	Doc:  "every `go` statement must route through the package's spawn helper",
	run:  runGoSpawn,
}

func runGoSpawn(pass *pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			inSpawn := fn.Name.Name == "spawn"
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok && !inSpawn {
					pass.reportf(g.Pos(), "bare go statement: route goroutines through the package's spawn helper")
				}
				return true
			})
		}
	}
}
