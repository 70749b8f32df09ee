package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// LockOrder enforces two deadlock invariants across the lock-striped
// packages (ps, distps, served, tt):
//
//  1. The lock-acquisition-order graph — an edge A→B whenever some
//     function acquires B while holding A, directly or through a callee's
//     transitive acquires fact — must be acyclic. A cycle means two
//     executions can acquire the same pair of locks in opposite orders.
//  2. No lock may be held across a blocking operation: channel sends and
//     receives, select without default, time.Sleep, WaitGroup/Cond Wait,
//     or network I/O — whether written inline or hidden behind a call
//     whose may-block fact says so.
//
// Locks are identified at field/variable granularity (every element of
// p.hostMu[h] is one lock "hostMu"), matching locksafe. A site that is
// intentional — e.g. a condition-variable pattern — is suppressed with a
// line //elrec:lockorder <reason> directive.
//
// The order graph is built per package, which finds every cycle as long as
// no mutex is reachable by name outside its package (none is: every mutex
// in the module is an unexported field or variable). Then a lock is taken only by its
// own package's code, an edge A→B needs B's package to be A's or one A's
// imports, and so every edge of a cycle comes from the one package whose
// locks form it.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "lock acquisition order must be acyclic; no lock held across blocking operations",
	run:  runLockOrder,
}

// lockEdge is one observed A-held-while-acquiring-B event.
type lockEdge struct {
	from, to types.Object
	pos      token.Pos
}

func runLockOrder(pass *pass) {
	facts := pass.prog.facts()
	var edges []lockEdge
	for _, n := range pass.prog.nodes {
		if n.pkg == pass.Package {
			edges = append(edges, simulateLocks(pass, n, facts)...)
		}
	}
	reportLockCycles(pass, edges)
}

// heldLock is one entry of the simulated held-lock stack.
type heldLock struct {
	obj   types.Object
	write bool
	pos   token.Pos
}

// simulateLocks walks n's body in source order (excluding spawned
// goroutines) maintaining a held-lock stack, reporting blocking-while-held
// and re-acquisition, and returning the acquisition-order edges observed.
func simulateLocks(pass *pass, n *funcNode, facts *facts) []lockEdge {
	info := n.pkg.TypesInfo
	var held []heldLock
	var edges []lockEdge

	// Calls under defer release at function exit, not at their source
	// position; a deferred Unlock therefore keeps the lock held for the
	// rest of the simulation.
	deferred := map[*ast.CallExpr]bool{}
	ast.Inspect(n.decl.Body, func(node ast.Node) bool {
		if d, ok := node.(*ast.DeferStmt); ok {
			deferred[d.Call] = true
		}
		return true
	})
	nonBlockingComms := selectDefaultComms(n.decl.Body)
	staticCalls := map[*ast.CallExpr]*funcNode{}
	for _, cs := range n.calls {
		if !cs.async {
			staticCalls[cs.call] = cs.callee
		}
	}

	suppressed := func(node ast.Node) bool {
		_, ok := pass.prog.directive(node, "lockorder")
		return ok
	}
	reportBlocked := func(node ast.Node, what string) {
		if suppressed(node) {
			return
		}
		top := held[len(held)-1]
		pass.reportf(node.Pos(), "lock %s held across blocking operation: %s (in %s; acquired at %s)",
			lockDisplayName(top.obj), what, n.displayName(), pass.Fset.Position(top.pos))
	}

	walkAsync(n.decl.Body, func(node ast.Node, async bool) bool {
		if async {
			return false
		}
		switch node := node.(type) {
		case *ast.SendStmt:
			if len(held) > 0 && !nonBlockingComms[node.Pos()] {
				reportBlocked(node, "channel send")
			}
		case *ast.UnaryExpr:
			if node.Op == token.ARROW && len(held) > 0 && !nonBlockingComms[node.Pos()] {
				reportBlocked(node, "channel receive")
			}
		case *ast.SelectStmt:
			if len(held) > 0 && !selectHasDefault(node) {
				reportBlocked(node, "select")
			}
		case *ast.RangeStmt:
			if len(held) > 0 {
				if tv, ok := info.Types[node.X]; ok {
					if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
						reportBlocked(node, "range over channel")
					}
				}
			}
		case *ast.CallExpr:
			edges = append(edges, lockCallSim(pass, n, node, info, facts, staticCalls, deferred, &held, suppressed)...)
		}
		return true
	})
	return edges
}

// lockCallSim handles one call expression during the lock simulation:
// acquisitions, releases, blocking externals and callee facts.
func lockCallSim(pass *pass, n *funcNode, call *ast.CallExpr, info *types.Info, facts *facts,
	staticCalls map[*ast.CallExpr]*funcNode, deferred map[*ast.CallExpr]bool,
	held *[]heldLock, suppressed func(ast.Node) bool) []lockEdge {

	if obj, write, ok := lockAcquisition(info, call); ok {
		var edges []lockEdge
		for _, h := range *held {
			if h.obj == obj {
				if !(!h.write && !write) && !suppressed(call) {
					pass.reportf(call.Pos(), "lock %s acquired while already held (in %s; first acquired at %s)",
						lockDisplayName(obj), n.displayName(), pass.Fset.Position(h.pos))
				}
				continue
			}
			edges = append(edges, lockEdge{from: h.obj, to: obj, pos: call.Pos()})
		}
		*held = append(*held, heldLock{obj: obj, write: write, pos: call.Pos()})
		return edges
	}

	if obj, ok := lockRelease(info, call); ok {
		if deferred[call] {
			return nil // releases at return: lock stays held for the simulation
		}
		for i := len(*held) - 1; i >= 0; i-- {
			if (*held)[i].obj == obj {
				*held = append((*held)[:i], (*held)[i+1:]...)
				break
			}
		}
		return nil
	}

	if len(*held) == 0 {
		// Nothing held: only acquisition-order edges matter, and those come
		// from the callee's own simulation.
		return nil
	}

	if callee, ok := staticCalls[call]; ok {
		var edges []lockEdge
		for lock := range facts.acquires[callee] {
			heldSame := false
			for _, h := range *held {
				if h.obj == lock {
					heldSame = true
					if !suppressed(call) {
						pass.reportf(call.Pos(), "lock %s held when calling %s, which may acquire it again (in %s)",
							lockDisplayName(lock), callee.displayName(), n.displayName())
					}
				}
			}
			if !heldSame {
				for _, h := range *held {
					edges = append(edges, lockEdge{from: h.obj, to: lock, pos: call.Pos()})
				}
			}
		}
		if bf := facts.block[callee]; bf.kind != 0 && !suppressed(call) {
			top := (*held)[len(*held)-1]
			pass.reportf(call.Pos(), "lock %s held across call to %s, which may block (%s) (in %s)",
				lockDisplayName(top.obj), callee.displayName(), bf.witness, n.displayName())
		}
		return edges
	}

	if k, why := externalBlockKind(info, call); k != 0 && !suppressed(call) {
		top := (*held)[len(*held)-1]
		pass.reportf(call.Pos(), "lock %s held across blocking operation: %s (in %s; acquired at %s)",
			lockDisplayName(top.obj), why, n.displayName(), pass.Fset.Position(top.pos))
	}
	return nil
}

// reportLockCycles finds the strongly connected components of the
// acquisition-order graph and reports each once, deterministically, at the
// earliest witness position of an in-cycle edge.
func reportLockCycles(pass *pass, edges []lockEdge) {
	adj := map[types.Object]map[types.Object]token.Pos{}
	var locks []types.Object
	for _, e := range edges {
		for _, o := range []types.Object{e.from, e.to} {
			if adj[o] == nil {
				adj[o] = map[types.Object]token.Pos{}
				locks = append(locks, o)
			}
		}
		if _, ok := adj[e.from][e.to]; !ok {
			adj[e.from][e.to] = e.pos
		}
	}
	byName := func(s []types.Object) {
		sort.Slice(s, func(i, j int) bool { return lockDisplayName(s[i]) < lockDisplayName(s[j]) })
	}
	byName(locks)
	succ := func(v types.Object) []types.Object {
		var out []types.Object
		for w := range adj[v] {
			out = append(out, w)
		}
		byName(out)
		return out
	}
	for _, scc := range sccs(locks, succ) {
		if _, selfLoop := adj[scc[0]][scc[0]]; len(scc) < 2 && !selfLoop {
			continue
		}
		names := make([]string, len(scc))
		inSCC := map[types.Object]bool{}
		for i, o := range scc {
			names[i] = lockDisplayName(o)
			inSCC[o] = true
		}
		sort.Strings(names)
		// Earliest witness among in-cycle edges.
		var at token.Pos
		for _, from := range scc {
			for to, pos := range adj[from] {
				if !inSCC[to] {
					continue
				}
				if at == token.NoPos || pass.Fset.Position(pos).Filename < pass.Fset.Position(at).Filename ||
					(pass.Fset.Position(pos).Filename == pass.Fset.Position(at).Filename && pos < at) {
					at = pos
				}
			}
		}
		pass.reportf(at, "lock acquisition order cycle: %s", joinCycle(names))
	}
}

func joinCycle(names []string) string {
	s := ""
	for i, n := range names {
		if i > 0 {
			s += " → "
		}
		s += n
	}
	return s + " → " + names[0]
}
