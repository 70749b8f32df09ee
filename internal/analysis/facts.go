package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Per-function facts computed bottom-up over the call graph's strongly
// connected components. Two analyzers consume them today: ctxflow (does an
// entry point block?) and lockorder (which locks can a call acquire, and
// can it block while they are held?).

// blockKind classifies how a function may block.
type blockKind uint8

const (
	// blockChan: channel operations, select without default, time.Sleep,
	// WaitGroup/Cond Wait — unbounded waits on in-process coordination.
	blockChan blockKind = 1 << iota
	// blockNet: network I/O — dials, accepts, reads and writes on net
	// connections (deadline-governed in this tree, but still I/O a lock
	// must never be held across).
	blockNet
)

// blockFact is the may-block fact of one function: what kinds of blocking
// it can perform, with one human-readable witness for diagnostics.
type blockFact struct {
	kind    blockKind
	witness string // e.g. "channel receive", "time.Sleep", "call to roundTrip"
}

// facts is the program-wide fact store.
type facts struct {
	// block[n] is n's may-block fact (zero kind: proven non-blocking
	// modulo the conservative frontier).
	block map[*funcNode]blockFact
	// acquires[n] is the set of lock objects n may acquire (transitively,
	// excluding spawned goroutines).
	acquires map[*funcNode]map[types.Object]bool
}

// facts computes (once) and returns the program's fact store.
func (p *program) facts() *facts {
	if p.memo != nil {
		return p.memo
	}
	f := &facts{
		block:    map[*funcNode]blockFact{},
		acquires: map[*funcNode]map[types.Object]bool{},
	}
	// Direct facts per function.
	for _, n := range p.nodes {
		f.block[n] = directBlockFact(n)
		f.acquires[n] = directAcquires(n)
	}
	// Propagate bottom-up: callees first, components unioned to a fixed
	// point trivially (one union suffices because SCC members share one
	// merged fact).
	succ := func(n *funcNode) []*funcNode {
		var out []*funcNode
		for _, cs := range n.calls {
			out = append(out, cs.callee)
		}
		return out
	}
	for _, scc := range sccs(p.nodes, succ) {
		merged := blockFact{}
		acq := map[types.Object]bool{}
		inSCC := map[*funcNode]bool{}
		for _, n := range scc {
			inSCC[n] = true
		}
		for _, n := range scc {
			merged = mergeBlock(merged, f.block[n], "")
			for obj := range f.acquires[n] {
				acq[obj] = true
			}
			for _, cs := range n.calls {
				if cs.async || inSCC[cs.callee] {
					continue
				}
				cb := f.block[cs.callee]
				merged = mergeBlock(merged, cb, "call to "+cs.callee.displayName())
				for obj := range f.acquires[cs.callee] {
					acq[obj] = true
				}
			}
		}
		for _, n := range scc {
			f.block[n] = merged
			f.acquires[n] = acq
		}
	}
	p.memo = f
	return f
}

func mergeBlock(into, from blockFact, viaWitness string) blockFact {
	if from.kind == 0 {
		return into
	}
	if into.kind == 0 {
		w := from.witness
		if viaWitness != "" {
			w = viaWitness
		}
		return blockFact{kind: from.kind, witness: w}
	}
	into.kind |= from.kind
	return into
}

// directBlockFact scans one function body (excluding spawned-goroutine
// subtrees) for blocking operations.
func directBlockFact(n *funcNode) blockFact {
	var fact blockFact
	info := n.pkg.TypesInfo
	nonBlockingComms := selectDefaultComms(n.decl.Body)
	walkAsync(n.decl.Body, func(node ast.Node, async bool) bool {
		if async || fact.kind == blockChan|blockNet {
			return !async
		}
		switch node := node.(type) {
		case *ast.SendStmt:
			if !nonBlockingComms[node.Pos()] {
				fact = mergeBlock(fact, blockFact{blockChan, "channel send"}, "")
			}
		case *ast.UnaryExpr:
			if node.Op == token.ARROW && !nonBlockingComms[node.Pos()] {
				fact = mergeBlock(fact, blockFact{blockChan, "channel receive"}, "")
			}
		case *ast.SelectStmt:
			if !selectHasDefault(node) {
				fact = mergeBlock(fact, blockFact{blockChan, "select"}, "")
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[node.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					fact = mergeBlock(fact, blockFact{blockChan, "range over channel"}, "")
				}
			}
		case *ast.CallExpr:
			if k, why := externalBlockKind(info, node); k != 0 {
				fact = mergeBlock(fact, blockFact{k, why}, "")
			}
		}
		return true
	})
	return fact
}

// selectDefaultComms returns the positions of send/receive operations that
// are the guards of select cases in a select carrying a default clause —
// those are non-blocking by construction.
func selectDefaultComms(body *ast.BlockStmt) map[token.Pos]bool {
	out := map[token.Pos]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok || !selectHasDefault(sel) {
			return true
		}
		for _, clause := range sel.Body.List {
			comm, ok := clause.(*ast.CommClause)
			if !ok || comm.Comm == nil {
				continue
			}
			ast.Inspect(comm.Comm, func(cn ast.Node) bool {
				switch cn := cn.(type) {
				case *ast.SendStmt:
					out[cn.Pos()] = true
				case *ast.UnaryExpr:
					if cn.Op == token.ARROW {
						out[cn.Pos()] = true
					}
				}
				return true
			})
		}
		return true
	})
	return out
}

func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, clause := range sel.Body.List {
		if comm, ok := clause.(*ast.CommClause); ok && comm.Comm == nil {
			return true
		}
	}
	return false
}

// externalBlockKind classifies one call expression against the known
// blocking surface of the standard library: time.Sleep, WaitGroup/Cond
// Wait, and anything in package net (including interface methods on
// net.Conn/net.Listener, which resolve to the net package).
func externalBlockKind(info *types.Info, call *ast.CallExpr) (blockKind, string) {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	default:
		return 0, ""
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return 0, ""
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Sleep" {
			return blockChan, "time.Sleep"
		}
	case "sync":
		if fn.Name() == "Wait" {
			recv := recvTypeName(fn)
			if recv == "WaitGroup" || recv == "Cond" {
				return blockChan, "sync." + recv + ".Wait"
			}
		}
	case "net":
		return blockNet, "net." + fn.Name()
	}
	return 0, ""
}

// recvTypeName returns the bare receiver type name of a method, or "".
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return named.Obj().Name()
}

// directAcquires scans one function body (excluding spawned goroutines)
// for mutex acquisitions, keyed by the lock's declared object.
func directAcquires(n *funcNode) map[types.Object]bool {
	out := map[types.Object]bool{}
	info := n.pkg.TypesInfo
	walkAsync(n.decl.Body, func(node ast.Node, async bool) bool {
		if async {
			return false
		}
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		if obj, _, ok := lockAcquisition(info, call); ok {
			out[obj] = true
		}
		return true
	})
	return out
}

// lockAcquisition resolves a call of the form <lock>.Lock() or
// <lock>.RLock() to the object declaring the lock (a struct field or a
// variable), reporting whether the acquisition is a write lock.
func lockAcquisition(info *types.Info, call *ast.CallExpr) (obj types.Object, write bool, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, false, false
	}
	switch sel.Sel.Name {
	case "Lock":
		write = true
	case "RLock":
	default:
		return nil, false, false
	}
	if !isSyncLockMethod(info, sel) {
		return nil, false, false
	}
	obj = lockBaseObject(info, sel.X)
	return obj, write, obj != nil
}

// lockRelease resolves <lock>.Unlock() / <lock>.RUnlock() the same way.
func lockRelease(info *types.Info, call *ast.CallExpr) (types.Object, bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel || (sel.Sel.Name != "Unlock" && sel.Sel.Name != "RUnlock") {
		return nil, false
	}
	if !isSyncLockMethod(info, sel) {
		return nil, false
	}
	obj := lockBaseObject(info, sel.X)
	return obj, obj != nil
}

// isSyncLockMethod reports whether sel selects a method declared in
// package sync (Mutex/RWMutex and wrappers embedding them).
func isSyncLockMethod(info *types.Info, sel *ast.SelectorExpr) bool {
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == "sync"
}

// lockBaseObject reduces p.hostMu[h], c.mu, or mu to the object declaring
// the lock (field hostMu, field mu, var mu).
func lockBaseObject(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := info.Uses[e]; obj != nil {
			return obj
		}
		return info.Defs[e]
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	case *ast.IndexExpr:
		return lockBaseObject(info, e.X)
	case *ast.StarExpr:
		return lockBaseObject(info, e.X)
	}
	return nil
}

// lockDisplayName renders a lock object for diagnostics: ps.statsMu,
// distps.mu.
func lockDisplayName(obj types.Object) string {
	if obj.Pkg() != nil {
		pkg := obj.Pkg().Path()
		pkg = pkg[strings.LastIndex(pkg, "/")+1:]
		return pkg + "." + obj.Name()
	}
	return obj.Name()
}
