package analysis

import "strings"

// ModulePath is the import-path root of this module.
const ModulePath = "repro"

// Suite returns the eight project analyzers in reporting order: the six
// intraprocedural passes, then the two interprocedural ones built on the
// call-graph facts engine (which scope themselves, see each analyzer).
func Suite() []*Analyzer {
	return []*Analyzer{
		NoPanic, Determinism, LockSafe, GoSpawn, ErrCmp, ObsClock,
		LockOrder, CtxFlow,
	}
}

// deterministicPackages are the numeric result paths whose outputs must be
// bit-reproducible: the reorder bijection pipeline (graphx, reorder), the
// TT embedding kernels (tt) and the system-composition layer that is
// verified bit-exact across kill/resume (core).
var deterministicPackages = map[string]bool{
	ModulePath + "/internal/graphx":  true,
	ModulePath + "/internal/reorder": true,
	ModulePath + "/internal/tt":      true,
	ModulePath + "/internal/core":    true,
}

// goroutineOwnerPackages are the packages that own long-lived goroutines
// and therefore must route every `go` statement through their
// panic-converting spawn helper: the pipeline trainer (ps), the serving
// replica pool (served) and the distributed parameter server (distps, whose
// shard accept loops and lease-renewal tickers outlive individual requests),
// whose callers block on response channels or socket reads that a crashed
// bare goroutine would never answer. The fault injector (faults) starts no
// goroutine now; it stays in scope so that any goroutine it grows goes
// through a spawn helper too.
var goroutineOwnerPackages = map[string]bool{
	ModulePath + "/internal/ps":     true,
	ModulePath + "/internal/served": true,
	ModulePath + "/internal/distps": true,
	ModulePath + "/internal/faults": true,
}

// Applies reports whether analyzer a runs on package pkgPath. Library
// packages are the public facade plus everything under internal/ except
// internal/bench — the experiment harness is tool code (it renders
// figures and tables for a human; panic-on-setup-error is its contract),
// as are the cmd/ binaries.
func Applies(a *Analyzer, pkgPath string) bool {
	if pkgPath != ModulePath && !strings.HasPrefix(pkgPath, ModulePath+"/") {
		return false
	}
	switch a {
	case NoPanic:
		return libraryPackage(pkgPath)
	case Determinism:
		return deterministicPackages[pkgPath]
	case GoSpawn:
		return goroutineOwnerPackages[pkgPath]
	case ObsClock:
		return clockFunnelPackage(pkgPath)
	case LockSafe, ErrCmp:
		return true
	}
	return true
}

// clockFunnelPackage reports whether pkgPath must route wall-clock reads
// through obs.Clock: everything except the clock's home (internal/obs) and
// the binary entry points (cmd/), where raw wall time for progress
// reporting and CLI timing is fine.
func clockFunnelPackage(pkgPath string) bool {
	switch {
	case pkgPath == ModulePath+"/internal/obs":
		return false
	case strings.HasPrefix(pkgPath, ModulePath+"/cmd/"):
		return false
	}
	return true
}

// libraryPackage reports whether pkgPath holds library code (as opposed
// to a binary entry point or the experiment harness).
func libraryPackage(pkgPath string) bool {
	if pkgPath == ModulePath {
		return true
	}
	if !strings.HasPrefix(pkgPath, ModulePath+"/internal/") {
		return false
	}
	return !strings.HasPrefix(pkgPath, ModulePath+"/internal/bench")
}
