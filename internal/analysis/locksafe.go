package analysis

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// LockSafe enforces the "guarded by <mu>" field contracts: a struct field
// whose declaration comment says `guarded by statsMu` may only be read or
// written inside a function that (a) acquires that mutex — contains a
// <mu>.Lock() or <mu>.RLock() call — or (b) declares, via an
// //elrec:locked <mu> [reason] directive in its doc comment, that its
// callers hold the lock or otherwise guarantee exclusivity (constructors
// before publication, test-only hooks). The check is function-local and
// presence-based — it does not prove lock ordering — which is exactly the
// class of regression it is meant to catch: a new method touching guarded
// state with no locking discipline at all.
var LockSafe = &Analyzer{
	Name: "locksafe",
	Doc: "fields commented `guarded by <mu>` may only be accessed with " +
		"that mutex held (or under //elrec:locked <mu>)",
	run: runLockSafe,
}

var guardedRe = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_]*)`)

func runLockSafe(pass *pass) {
	guarded := collectGuardedFields(pass)
	if len(guarded) == 0 {
		return
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			pass.checkGuardedAccesses(fn, guarded)
		}
	}
}

// collectGuardedFields maps each annotated struct-field object to the name
// of the mutex guarding it.
func collectGuardedFields(pass *pass) map[types.Object]string {
	out := map[types.Object]string{}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				mu := guardedMutex(field)
				if mu == "" {
					continue
				}
				for _, name := range field.Names {
					if obj := pass.TypesInfo.Defs[name]; obj != nil {
						out[obj] = mu
					}
				}
			}
			return true
		})
	}
	return out
}

// guardedMutex extracts the mutex name from a field's doc or line comment.
func guardedMutex(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// checkGuardedAccesses verifies every guarded-field access in fn.
func (p *pass) checkGuardedAccesses(fn *ast.FuncDecl, guarded map[types.Object]string) {
	locked := lockCallsIn(fn.Body)
	if d, ok := p.prog.directive(fn, "locked"); ok {
		mu, _, _ := strings.Cut(d.args, " ")
		if mu == "" {
			p.reportf(fn.Pos(), "//elrec:locked annotation requires a mutex name")
		} else {
			locked[mu] = true
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj := p.TypesInfo.Uses[sel.Sel]
		mu, isGuarded := guarded[obj]
		if !isGuarded {
			return true
		}
		if !locked[mu] {
			p.reportf(sel.Sel.Pos(), "%s is guarded by %s, but %s neither locks it nor declares //elrec:locked %s",
				sel.Sel.Name, mu, fn.Name.Name, mu)
		}
		return true
	})
}

// lockCallsIn returns the set of mutex field names on which the body calls
// Lock or RLock. The receiver chain is reduced to its final component, so
// p.statsMu.Lock(), c.mu.RLock() and p.hostMu[h].Lock() register statsMu,
// mu and hostMu respectively.
func lockCallsIn(body *ast.BlockStmt) map[string]bool {
	out := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		if name := baseName(sel.X); name != "" {
			out[name] = true
		}
		return true
	})
	return out
}

// baseName reduces an expression like p.hostMu[h] or c.mu to the last
// identifier naming the mutex (hostMu, mu).
func baseName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.IndexExpr:
		return baseName(e.X)
	case *ast.ParenExpr:
		return baseName(e.X)
	}
	return ""
}
