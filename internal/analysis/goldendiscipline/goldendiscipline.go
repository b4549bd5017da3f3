// Package goldendiscipline keeps golden pins out of test source.
//
// A "golden pin" is an exact equality test between an engine-produced
// metric and a hardcoded number: `if m.Connections != 84 {...}`. Pins
// are how this repository proves bit-identical behaviour — but only
// while every pin lives in internal/goldenfile's testdata/*.json,
// where a sanctioned engine change refreshes them all in one audited
// command (scripts/regen-golden.sh) and the BASELINE_RESET flow makes
// the refresh reviewable. A numeric literal inline in a test is a pin
// the refresh can't reach: after the next legitimate engine change it
// either breaks the build (best case) or silently pins stale
// behaviour behind an edited number nobody can audit (worst case).
//
// The check flags == / != comparisons in _test.go files between an
// expression rooted in an engine package (core, trace, client, cloud,
// tcpsim) and a hardcoded numeric constant of magnitude >= 2 (0 and 1
// are structural: "no retransmits", "exactly one connection") — but
// only inside test functions that actually drive the engine (build a
// testbed or dialer, run a campaign, sync a client, discover a
// service). Unit tests that hand-build their inputs (a Summarize of
// two literal Metrics, a window over hand-recorded packets) pin
// closed-form arithmetic whose expected values live in the test
// itself; an engine refresh cannot move them, so they are not golden
// pins. Range assertions (<, >, band checks) are not pins either —
// they assert paper-shaped behaviour, not exact bits. Deliberate
// structural equalities inside engine-driving tests carry
// `//simlint:allow goldendiscipline`.
package goldendiscipline

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "goldendiscipline",
	Doc: "flag hardcoded numeric golden pins (==/!= against literals) on engine metrics in tests; " +
		"pins belong in internal/goldenfile testdata refreshed via scripts/regen-golden.sh",
	Run: run,
}

// metricPkgs are the packages whose values count as engine metrics.
// stats is deliberately absent: its tests pin closed-form math on
// hand-built inputs, which is arithmetic, not engine behaviour.
var metricPkgs = map[string]bool{
	analysis.ModulePath + "/internal/core":   true,
	analysis.ModulePath + "/internal/trace":  true,
	analysis.ModulePath + "/internal/client": true,
	analysis.ModulePath + "/internal/cloud":  true,
	analysis.ModulePath + "/internal/tcpsim": true,
}

func run(pass *analysis.Pass) error {
	pkgPath := analysis.PkgPath(pass.Pkg)
	if pkgPath == analysis.ModulePath+"/internal/goldenfile" ||
		strings.HasPrefix(pkgPath, analysis.ModulePath+"/internal/analysis") {
		return nil
	}
	for _, f := range pass.Files {
		if !analysis.IsTestFile(pass.Fset, f) {
			continue
		}
		decls := declIndex(pass, f)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !runsEngine(pass, fd.Body) {
				continue
			}
			checkFunc(pass, decls, fd.Body)
		}
	}
	return nil
}

// runnerPrefixes / runnerExact identify the engine entry points: a
// function from an engine package with one of these names makes the
// calling test an engine run, whose metric outputs only a sanctioned
// golden refresh may redefine.
var runnerPrefixes = []string{
	"Run", "Measure", "Sync", "Dial", "Detect", "Discover",
	"Fig", "Settle", "LocationStudy", "WhatIf", "LossSweep",
}

// runnerExact adds whole names, among them the unexported engine
// bodies that in-package core tests drive directly: a prefix match is
// case-sensitive, so "runCampaign" would not count as a "Run" runner.
var runnerExact = map[string]bool{
	"NewTestbed":     true,
	"NewDialer":      true,
	"runCampaign":    true,
	"summarizeCells": true,
}

// enginePkgs are the packages whose runner calls gate the check: the
// metric packages plus the protocol simulators.
var enginePkgs = map[string]bool{
	analysis.ModulePath + "/internal/httpsim": true,
	analysis.ModulePath + "/internal/dnssim":  true,
}

// runsEngine reports whether the function body invokes an engine
// entry point (directly, or through a same-file helper one level
// deep via declIndex-style resolution being unnecessary: helpers that
// run the engine are themselves flagged when they pin).
func runsEngine(pass *analysis.Pass, body *ast.BlockStmt) bool {
	runs := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !runs
		}
		obj := analysis.CalleeObj(pass.TypesInfo, call.Fun)
		if obj == nil {
			return true
		}
		pkg := analysis.ObjPkgPath(obj)
		if !metricPkgs[pkg] && !enginePkgs[pkg] {
			return true
		}
		name := obj.Name()
		if runnerExact[name] {
			runs = true
			return false
		}
		for _, p := range runnerPrefixes {
			if strings.HasPrefix(name, p) {
				runs = true
				return false
			}
		}
		return true
	})
	return runs
}

// runShapeFields are metric-package fields that describe the sampling
// design rather than engine physics: how many repetitions ran and the
// stopping rule they ran under. An adaptive test pinning "the rule
// stopped at exactly MaxReps=12" or "the antithetic design needs 16
// reps where fixed sampling needs 24" asserts the sequential stopping
// logic — arithmetic over the rule, deliberately pinned in the test —
// not a metric a golden refresh could ever move. The simulated
// measurements those repetitions produced stay pinned in
// internal/goldenfile like everything else.
var runShapeFields = map[string]bool{
	"core.Summary.Reps":                  true,
	"core.Summary.RepsUsed":              true,
	"core.Campaign.Reps":                 true,
	"core.Campaign.Precision":            true,
	"core.Campaign.MaxReps":              true,
	"core.CapabilityConfidence.RepsUsed": true,
}

// checkFunc scans one engine-driving test function for pin-shaped
// assertions.
func checkFunc(pass *analysis.Pass, decls map[types.Object]ast.Expr, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		// A pin has assertion shape: an if whose condition compares
		// against the literal and whose body fails the test. Equality
		// used as a flow filter or classifier predicate is not a pin.
		ifs, ok := n.(*ast.IfStmt)
		if !ok || !containsTestFail(pass, ifs.Body) {
			return true
		}
		ast.Inspect(ifs.Cond, func(c ast.Node) bool {
			be, ok := c.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			lit, other := pinnedSide(pass, be)
			if lit == nil {
				return true
			}
			if root := metricRoot(pass, decls, other, 4); root != "" && !runShapeFields[root] {
				pass.Reportf(be.Pos(),
					"hardcoded numeric pin against engine metric %s: move the pin into "+
						"internal/goldenfile testdata (refresh with scripts/regen-golden.sh)", root)
			}
			return true
		})
		return true
	})
}

// containsTestFail reports whether the statement block calls a
// testing error or fatal method.
func containsTestFail(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		obj := analysis.CalleeObj(pass.TypesInfo, call.Fun)
		if obj != nil && analysis.ObjPkgPath(obj) == "testing" {
			switch obj.Name() {
			case "Error", "Errorf", "Fatal", "Fatalf":
				found = true
			}
		}
		return !found
	})
	return found
}

// pinnedSide returns (literal side, other side) when exactly one
// operand is a pin-worthy hardcoded numeric constant.
func pinnedSide(pass *analysis.Pass, be *ast.BinaryExpr) (lit, other ast.Expr) {
	xPin, yPin := pinWorthy(pass, be.X), pinWorthy(pass, be.Y)
	switch {
	case xPin && !yPin:
		return be.X, be.Y
	case yPin && !xPin:
		return be.Y, be.X
	}
	return nil, nil
}

// pinWorthy reports whether e is a hardcoded numeric constant that
// smells like a pin: constant-valued, spelled with a literal (a named
// constant is symbolic and tracks the code), and of magnitude >= 2
// for integers or non-zero for fractional values.
func pinWorthy(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	switch tv.Value.Kind() {
	case constant.Int, constant.Float:
	default:
		return false
	}
	// A bare identifier or qualified name is a symbolic constant.
	switch stripParens(e).(type) {
	case *ast.Ident, *ast.SelectorExpr:
		return false
	}
	if !containsNumericLit(e) {
		return false
	}
	f, _ := constant.Float64Val(constant.ToFloat(tv.Value))
	if f < 0 {
		f = -f
	}
	if tv.Value.Kind() == constant.Int {
		return f >= 2
	}
	return f != 0
}

func stripParens(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// containsNumericLit reports whether the expression spells out a
// numeric literal anywhere (so 1<<20 and 13*time.Second count, a lone
// named constant does not).
func containsNumericLit(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if bl, ok := n.(*ast.BasicLit); ok && (bl.Kind == token.INT || bl.Kind == token.FLOAT) {
			found = true
		}
		return !found
	})
	return found
}

// declIndex maps local variables to the expression that initialised
// them (single-assignment := and var forms), giving metricRoot one
// level of provenance through `got := engine.Metric(); got != 42`.
func declIndex(pass *analysis.Pass, f *ast.File) map[types.Object]ast.Expr {
	idx := make(map[types.Object]ast.Expr)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE || len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					if obj := pass.TypesInfo.Defs[id]; obj != nil {
						idx[obj] = n.Rhs[i]
					}
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) != len(n.Values) {
				return true
			}
			for i, id := range n.Names {
				if obj := pass.TypesInfo.Defs[id]; obj != nil {
					idx[obj] = n.Values[i]
				}
			}
		}
		return true
	})
	return idx
}

// metricRoot describes the engine value e is rooted in, or "" when e
// is not metric-rooted. depth bounds provenance chains.
func metricRoot(pass *analysis.Pass, decls map[types.Object]ast.Expr, e ast.Expr, depth int) string {
	if depth == 0 || e == nil {
		return ""
	}
	switch x := stripParens(e).(type) {
	case *ast.SelectorExpr:
		// Qualified package names (trace.AllFlows) are symbolic.
		if id, ok := x.X.(*ast.Ident); ok {
			if _, isPkg := pass.TypesInfo.Uses[id].(*types.PkgName); isPkg {
				return ""
			}
		}
		if path, name := analysis.NamedPkgPath(pass.TypesInfo.TypeOf(x.X)); metricPkgs[path] {
			return shortPkg(path) + "." + name + "." + x.Sel.Name
		}
		return metricRoot(pass, decls, x.X, depth-1)
	case *ast.CallExpr:
		obj := analysis.CalleeObj(pass.TypesInfo, x.Fun)
		if obj != nil && metricPkgs[analysis.ObjPkgPath(obj)] {
			return shortPkg(analysis.ObjPkgPath(obj)) + "." + obj.Name() + "()"
		}
		return ""
	case *ast.BinaryExpr:
		if root := metricRoot(pass, decls, x.X, depth-1); root != "" {
			return root
		}
		return metricRoot(pass, decls, x.Y, depth-1)
	case *ast.UnaryExpr:
		return metricRoot(pass, decls, x.X, depth-1)
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[x]
		if obj == nil {
			return ""
		}
		return metricRoot(pass, decls, decls[obj], depth-1)
	}
	return ""
}

func shortPkg(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}
