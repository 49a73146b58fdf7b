// Package workerstate keeps mutable per-worker state out of the closures
// handed to the flow pool.
//
// flow.Map and flow.MapAll run one closure from many goroutines at once. A
// Retimer, Tuner, Sampler, LeakModel or allocation Instance holds scratch
// buffers that are overwritten by every call — sharing one across workers
// through a captured variable is a data race that happens to pass most
// runs, which is why the CI race job exists and why MapWith was built: its
// factory constructs one state per worker and threads it into the closure
// as a parameter. This pass makes the convention a compile-time rule:
//
//   - a function literal passed to flow.Map or flow.MapAll must not
//     reference worker-scoped mutable state (sta.Timing, core.Instance,
//     variation.{Retimer,Tuner,Sampler,LeakModel}) declared outside the
//     literal;
//   - a function literal passed to flow.MapWith as the per-item body may
//     capture an sta.Timing (the read-only nominal timing is the
//     established idiom) but none of the other worker-scoped types —
//     those must arrive through the factory-made state parameter;
//   - a MapWith factory must not return a captured worker-scoped value
//     verbatim: that would hand every worker the same state. Factories
//     capture shared immutable bases and clone/construct from them.
package workerstate

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
	"repro/internal/lint/lintutil"
)

// Analyzer is the workerstate pass.
var Analyzer = &analysis.Analyzer{
	Name: "workerstate",
	Doc:  "closures on the flow pool must not capture worker-scoped mutable state; use the MapWith factory",
	Run:  run,
}

// workerScoped lists the types whose values are single-goroutine scratch
// holders.
var workerScoped = map[string]bool{
	"repro/internal/sta.Timing":          true,
	"repro/internal/sta.TimingBatch":     true,
	"repro/internal/core.Instance":       true,
	"repro/internal/variation.Retimer":   true,
	"repro/internal/variation.Tuner":     true,
	"repro/internal/variation.Sampler":   true,
	"repro/internal/variation.LeakModel": true,
	"repro/internal/variation.DieBlock":  true,
}

func run(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := lintutil.Callee(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "repro/internal/flow" {
				return true
			}
			switch fn.Name() {
			case "Map", "MapAll":
				// fn is the last argument.
				if lit, ok := lastArg(call).(*ast.FuncLit); ok {
					checkCaptures(pass, lit, fn.Name(), false)
				}
			case "MapWith":
				// MapWith(ctx, workers, n, newState, fn)
				if len(call.Args) == 5 {
					if lit, ok := ast.Unparen(call.Args[3]).(*ast.FuncLit); ok {
						checkFactory(pass, lit)
					}
					if lit, ok := ast.Unparen(call.Args[4]).(*ast.FuncLit); ok {
						checkCaptures(pass, lit, "MapWith", true)
					}
				}
			}
			return true
		})
	}
	return nil, nil
}

func lastArg(call *ast.CallExpr) ast.Expr {
	if len(call.Args) == 0 {
		return nil
	}
	return ast.Unparen(call.Args[len(call.Args)-1])
}

// checkCaptures reports references inside lit to worker-scoped values
// declared outside it. timingOK exempts sta.Timing (MapWith's read-only
// nominal-timing idiom).
func checkCaptures(pass *analysis.Pass, lit *ast.FuncLit, via string, timingOK bool) {
	forbidden := func(path string) bool {
		return workerScoped[path] && !(timingOK && path == "repro/internal/sta.Timing")
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			// A plain identifier reference: struct-field idents (the .smp
			// in w.smp) are reached through their root and skipped here.
			obj, ok := lintutil.ObjectOf(pass.TypesInfo, x).(*types.Var)
			if !ok || obj.IsField() || !declaredOutside(obj, lit) {
				return true
			}
			if path := lintutil.NamedPath(obj.Type()); forbidden(path) {
				pass.Reportf(x.Pos(), "closure passed to flow.%s captures %s (%s), worker-scoped mutable state shared across pool goroutines: thread it through a flow.MapWith factory instead", via, x.Name, path)
			}
		case *ast.SelectorExpr:
			// shared.rt reaches worker state through a captured container.
			root := lintutil.RootIdent(x.X)
			if root == nil {
				return true
			}
			obj, ok := lintutil.ObjectOf(pass.TypesInfo, root).(*types.Var)
			if !ok || obj.IsField() || !declaredOutside(obj, lit) {
				return true
			}
			tv, ok := pass.TypesInfo.Types[ast.Expr(x)]
			if !ok {
				return true
			}
			if path := lintutil.NamedPath(tv.Type); forbidden(path) {
				pass.Reportf(x.Sel.Pos(), "closure passed to flow.%s reaches %s (%s) through captured %s: worker-scoped mutable state must come from a flow.MapWith factory", via, x.Sel.Name, path, root.Name)
			}
		}
		return true
	})
}

// checkFactory reports a MapWith factory that returns a captured
// worker-scoped value verbatim (every worker would share it). Constructing
// or cloning from captured bases is fine.
func checkFactory(pass *analysis.Pass, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if inner, ok := n.(*ast.FuncLit); ok && inner != lit {
			return false // nested literal returns are its own business
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			id, ok := ast.Unparen(res).(*ast.Ident)
			if !ok {
				continue
			}
			obj, ok := lintutil.ObjectOf(pass.TypesInfo, id).(*types.Var)
			if !ok || !declaredOutside(obj, lit) {
				continue
			}
			if path := lintutil.NamedPath(obj.Type()); workerScoped[path] {
				pass.Reportf(res.Pos(), "flow.MapWith factory returns captured %s (%s): every worker would share one mutable state — construct or clone a fresh one per call", id.Name, path)
			}
		}
		return true
	})
}

// declaredOutside reports whether obj's declaration lies outside lit.
func declaredOutside(obj *types.Var, lit *ast.FuncLit) bool {
	return obj.Pos() < lit.Pos() || obj.Pos() >= lit.End()
}
