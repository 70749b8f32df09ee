package analysis

import "strings"

// modulePath is the import-path root of this module.
const modulePath = "repro"

// Suite returns the project analyzers in reporting order.
func Suite() []*Analyzer {
	return []*Analyzer{
		LockSafe, GoSpawn, ErrCmp, ObsClock, LockOrder, CtxFlow,
	}
}

// scopes is the one table of where each rule holds: a row per analyzer,
// keyed by its name, plus ctxEntryRule for ctxflow's second check.
var scopes = map[string]func(pkgPath string) bool{
	"locksafe": modulePackage,
	// The packages that own long-lived goroutines and route every `go`
	// statement through their spawn helper: the pipeline trainer (ps), the
	// serving replica pool (served) and the distributed parameter server
	// (distps, whose shard accept loops and lease-renewal tickers outlive
	// individual requests). The fault injector (faults) starts no goroutine
	// now; it stays in scope so that any goroutine it grows goes through a
	// spawn helper too.
	"gospawn": internal("ps", "served", "distps", "faults"),
	"errcmp":  modulePackage,
	// Everything except the clock's home (internal/obs) and the binary
	// entry points (cmd/), where raw wall time for progress reporting and
	// CLI timing is fine.
	"obsclock": func(pkgPath string) bool {
		return modulePackage(pkgPath) && pkgPath != modulePath+"/internal/obs" &&
			!strings.HasPrefix(pkgPath, modulePath+"/cmd/")
	},
	// The lock-striped packages.
	"lockorder": internal("ps", "distps", "served", "tt"),
	// Library code: the binaries and the experiment harness mint the root
	// contexts the library takes.
	"ctxflow": libraryPackage,
	// The training pipeline, the distributed parameter server and the
	// serving front end: their exported blocking API must take a context.
	ctxEntryRule: internal("ps", "distps", "serve"),
}

// ctxEntryRule is the scope row of ctxflow's exported-entry-point check.
const ctxEntryRule = "ctxflow/entry"

// Applies reports whether the scope table's row rule (an analyzer's name,
// or ctxEntryRule) admits package pkgPath.
func Applies(rule, pkgPath string) bool {
	in := scopes[rule]
	return in != nil && in(pkgPath)
}

// internal returns a scope admitting exactly the named internal/ packages.
func internal(names ...string) func(string) bool {
	return func(pkgPath string) bool {
		for _, n := range names {
			if pkgPath == modulePath+"/internal/"+n {
				return true
			}
		}
		return false
	}
}

// modulePackage reports whether pkgPath belongs to this module.
func modulePackage(pkgPath string) bool {
	return pkgPath == modulePath || strings.HasPrefix(pkgPath, modulePath+"/")
}

// libraryPackage reports whether pkgPath holds library code: the public
// facade and everything under internal/ except the experiment harness
// (internal/bench).
func libraryPackage(pkgPath string) bool {
	return pkgPath == modulePath || strings.HasPrefix(pkgPath, modulePath+"/internal/") &&
		!strings.HasPrefix(pkgPath, modulePath+"/internal/bench")
}
