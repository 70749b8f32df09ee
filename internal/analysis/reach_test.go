package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"path/filepath"
	"testing"
)

// reachAllowlist names what stays although no binary reaches it, each
// entry with its reason. A key ending in "/" names a whole package by the
// last element of its path; any other key is a function as
// funcNode.displayName renders it. Allowlisted functions count as roots
// for what they call.
var reachAllowlist = map[string]string{
	"cmdtest/":      "test support: parses the documented command lines in the cmd tests",
	"workertest/":   "test support: runs a test at one worker and at the host's width",
	"analysistest/": "test support: the golden-file harness of the analyzers' tests",

	"obs.NewManual":                  "test support: the manual clock the obs, ps and served tests step",
	"(*obs.Manual).Advance":          "test support: steps the manual clock",
	"(*tt.GeneralTable).lookupRow":   "the d = 3 oracle: one row by the plain core-product recurrence",
	"(*tt.GeneralTable).materialize": "the d = 3 oracle: the whole table, compared against Lookup",
	"(*tensor.Matrix).transpose":     "builds the TN/NT GEMM oracle operands",
	"tensor.FromSlice":               "builds the literal matrices of the kernel oracles",
	"(*faults.Seeded).Injected":      "counts injected faults in the injector's determinism tests",
}

// TestEveryFunctionIsReached fails on every non-test function of the
// module that no binary reaches and the allowlist does not name, and on
// every allowlist entry that names nothing unreached. Reached means
// referenced, transitively, from a root: every main, init and
// package-level initialiser of the module and of the benchmark, the
// facade's exported API, the exported methods of the types it hands out,
// and every method that satisfies an interface (a call through an
// interface is no static reference).
func TestEveryFunctionIsReached(t *testing.T) {
	l := NewLoader()
	pkgs, err := l.Load(filepath.Join("..", "..", "benchmark"), modulePath+"/...", ".")
	if err != nil {
		t.Fatal(err)
	}
	prog := buildProgram(pkgs)
	roots, inits := reachRoots(l, pkgs)
	reached := reachFrom(prog, roots, inits)

	allowKey := func(n *funcNode) string {
		if key := path.Base(n.pkg.PkgPath) + "/"; reachAllowlist[key] != "" {
			return key
		}
		return n.displayName()
	}
	used := map[string]bool{}
	for _, n := range prog.nodes {
		if key := allowKey(n); !reached[n.obj] && reachAllowlist[key] != "" {
			used[key] = true
			roots = append(roots, n.obj)
		}
	}
	for key := range reachAllowlist {
		if !used[key] {
			t.Errorf("allowlist entry %s names nothing unreached; drop it", key)
		}
	}
	reached = reachFrom(prog, roots, inits)
	for _, n := range prog.nodes {
		if !reached[n.obj] {
			t.Errorf("%s: no binary reaches it; give it a caller, delete it, or allowlist it with a reason", n.displayName())
		}
	}
}

// syntax is a tree to walk for references — a function body or a
// package-level initialiser — with the type information of its package.
type syntax struct {
	node ast.Node
	info *types.Info
}

// reachRoots returns the root functions and the package-level
// initialisers of the loaded packages.
func reachRoots(l *Loader, pkgs []*Package) ([]*types.Func, []syntax) {
	satisfies := interfaceMethods(l, pkgs)
	var roots []*types.Func
	var inits []syntax
	var facade []types.Type // what the facade hands out
	for _, pkg := range pkgs {
		isFacade := pkg.PkgPath == modulePath
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					fn := pkg.TypesInfo.Defs[decl.Name].(*types.Func)
					name := decl.Name.Name
					if decl.Recv == nil && (name == "init" || name == "main" && file.Name.Name == "main") ||
						isFacade && fn.Exported() || satisfies(fn) {
						roots = append(roots, fn)
					}
					if isFacade && fn.Exported() {
						facade = append(facade, fn.Type())
					}
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.ValueSpec:
							for _, v := range spec.Values {
								inits = append(inits, syntax{v, pkg.TypesInfo})
							}
						case *ast.TypeSpec:
							if isFacade && spec.Name.IsExported() {
								facade = append(facade, pkg.TypesInfo.Defs[spec.Name].Type())
							}
						}
					}
				}
			}
		}
	}

	// The exported methods of every module type the facade hands out: a
	// type it names, a result of its functions, and, transitively, the
	// results of those methods and the types of exported fields.
	seen := map[*types.Named]bool{}
	for len(facade) > 0 {
		t := facade[len(facade)-1]
		facade = facade[:len(facade)-1]
		switch t := types.Unalias(t).(type) {
		case *types.Pointer:
			facade = append(facade, t.Elem())
		case *types.Slice:
			facade = append(facade, t.Elem())
		case *types.Signature:
			for i := 0; i < t.Results().Len(); i++ {
				facade = append(facade, t.Results().At(i).Type())
			}
		case *types.Named:
			t = t.Origin()
			if seen[t] || t.Obj().Pkg() == nil || !modulePackage(t.Obj().Pkg().Path()) {
				continue
			}
			seen[t] = true
			mset := types.NewMethodSet(types.NewPointer(t))
			for i := 0; i < mset.Len(); i++ {
				if fn := mset.At(i).Obj().(*types.Func); fn.Exported() {
					roots = append(roots, fn)
					facade = append(facade, fn.Type())
				}
			}
			if s, ok := t.Underlying().(*types.Struct); ok {
				for i := 0; i < s.NumFields(); i++ {
					if s.Field(i).Exported() {
						facade = append(facade, s.Field(i).Type())
					}
				}
			}
		}
	}
	return roots, inits
}

// reachFrom returns the functions referenced, transitively, from roots
// and inits.
func reachFrom(prog *program, roots []*types.Func, inits []syntax) map[*types.Func]bool {
	reached := map[*types.Func]bool{}
	var queue []syntax
	reach := func(fn *types.Func) {
		fn = fn.Origin()
		if n := prog.byObj[fn]; n != nil && !reached[fn] {
			reached[fn] = true
			queue = append(queue, syntax{n.decl.Body, n.pkg.TypesInfo})
		}
	}
	for _, fn := range roots {
		reach(fn)
	}
	queue = append(queue, inits...)
	for len(queue) > 0 {
		next := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		ast.Inspect(next.node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if fn, ok := next.info.Uses[id].(*types.Func); ok {
					reach(fn)
				}
			}
			return true
		})
	}
	return reached
}

// stdUnexported are the interfaces the standard library calls methods
// through without exporting them: errors.Is, errors.As and errors.Unwrap's.
var stdUnexported = []string{
	"interface{ Unwrap() error }",
	"interface{ Unwrap() []error }",
	"interface{ Is(error) bool }",
	"interface{ As(any) bool }",
}

// interfaceMethods returns a predicate reporting whether a method
// satisfies a method of some non-generic interface: one a module package
// names anywhere in its code, one a standard-library package exports
// (fmt.Stringer, json.Marshaler, http.Handler, ...) or one of
// stdUnexported.
func interfaceMethods(l *Loader, pkgs []*Package) func(*types.Func) bool {
	byName := map[string][]*types.Interface{}
	seen := map[*types.Interface]bool{}
	add := func(t types.Type) {
		if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
			return
		}
		iface, ok := t.Underlying().(*types.Interface)
		if !ok || !iface.IsMethodSet() || seen[iface] {
			return
		}
		seen[iface] = true
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			byName[name] = append(byName[name], iface)
		}
	}
	for _, pkg := range pkgs {
		for _, tv := range pkg.TypesInfo.Types {
			add(tv.Type)
		}
	}
	for path, pkg := range l.checked {
		if modulePackage(path) {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.Exported() {
				add(tn.Type())
			}
		}
	}
	for _, src := range stdUnexported {
		tv, err := types.Eval(token.NewFileSet(), nil, token.NoPos, src)
		if err != nil {
			panic(err)
		}
		add(tv.Type)
	}
	return func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return false
		}
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if t.(*types.Named).TypeParams().Len() > 0 {
			return false
		}
		for _, iface := range byName[fn.Name()] {
			if types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface) {
				return true
			}
		}
		return false
	}
}
