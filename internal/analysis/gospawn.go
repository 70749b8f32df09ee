package analysis

import (
	"go/ast"
)

// GoSpawn pins down how pipeline goroutines are born: every `go`
// statement in the package must live inside the panic-converting spawn
// helper (a function named spawn), so a panicking goroutine is always
// converted into a recorded failure instead of killing the process. The
// fault-tolerance contract — Train returns an error, queues drain, state
// stays checkpoint-consistent — only holds if no code path can start a
// bare goroutine. The driver applies this analyzer to the goroutine-owning
// packages named in its row of the scope table (suite.go).
var GoSpawn = &Analyzer{
	Name: "gospawn",
	Doc: "every `go` statement must route through the panic-converting " +
		"spawn helper",
	run: runGoSpawn,
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
					pass.reportf(g.Pos(), "bare go statement: route goroutines through the panic-converting spawn helper")
				}
				return true
			})
		}
	}
}
