// Package walltime forbids wall-clock time in simulation packages.
//
// Every simulated instant must come from sim.Clock: the engine's core
// guarantee — a campaign is bit-identical given a seed, at any worker
// count, at any machine speed — holds only while no simulated
// quantity ever reads the host clock. A single time.Now() in a
// metric path silently re-introduces the one-day wall-clock cost the
// virtual-time kernel exists to remove, and worse, makes results
// machine-dependent.
//
// Allowlisted: cmd/ (drivers may time themselves — fleetbench reports
// its own wall time on purpose), the repository root
// package (scripts-driven benches), internal/sim (the kernel wraps
// time.Time arithmetic itself) and internal/analysis. Individual
// audited sites elsewhere use `//simlint:allow walltime`.
package walltime

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "walltime",
	Doc: "forbid wall-clock time (time.Now, time.Sleep, ...) in simulation packages; " +
		"all simulated time must ride sim.Clock",
	Run: run,
}

// banned maps forbidden package-level time functions to the sim
// primitive that replaces them.
var banned = map[string]string{
	"Now":       "sim.Clock.Now",
	"Since":     "sim.Clock.Since",
	"Sleep":     "sim.Scheduler scheduling",
	"After":     "sim.Scheduler scheduling",
	"Tick":      "sim.Scheduler scheduling",
	"NewTimer":  "sim.Scheduler scheduling",
	"NewTicker": "sim.Scheduler scheduling",
	"AfterFunc": "sim.Scheduler scheduling",
	"Until":     "sim.Clock arithmetic",
}

func run(pass *analysis.Pass) error {
	if allowedPkg(analysis.PkgPath(pass.Pkg)) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[sel.Sel]
			if analysis.ObjPkgPath(obj) != "time" {
				return true
			}
			// Only package-level functions read the wall clock;
			// methods like (time.Time).After are pure arithmetic.
			if fn, ok := obj.(*types.Func); !ok || fn.Signature().Recv() != nil {
				return true
			}
			if repl, bad := banned[obj.Name()]; bad {
				pass.Reportf(sel.Pos(),
					"wall-clock time.%s in simulation package: use %s (virtual time only)",
					obj.Name(), repl)
			}
			return true
		})
	}
	return nil
}

// allowedPkg reports whether the whole package may touch the wall
// clock.
func allowedPkg(path string) bool {
	return path == analysis.ModulePath ||
		strings.HasPrefix(path, analysis.ModulePath+"/cmd/") ||
		path == analysis.ModulePath+"/internal/sim" ||
		strings.HasPrefix(path, analysis.ModulePath+"/internal/analysis")
}
