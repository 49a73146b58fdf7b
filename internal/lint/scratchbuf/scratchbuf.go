// Package scratchbuf enforces the repo's reused-buffer contract on the
// functions that accept one.
//
// The hot kernels (sta.Analyzer.Run/RunLightBatch, core.Allocator.At,
// variation.Sampler.SampleInto) take a caller-owned scratch buffer and
// promise zero steady-state allocation by reusing it call to call. The
// contract only holds if the callee never *retains* the buffer: once a
// buffer (or an alias into it) is stored in a field, a global, a channel or
// a spawned goroutine, the next call overwrites state someone else still
// holds — the classic silent-corruption bug the test suites' allocation
// budgets cannot catch.
//
// A parameter is treated as scratch if its name is "buf" or "scratch" (or
// carries a Buf/Scratch suffix) and its type is a slice or pointer, or if
// the function is listed in KnownScratch (for contract-bearing parameters
// with domain names, e.g. SampleInto's die). Inside such a function the
// pass tracks every local alias of the buffer (x := buf, sub := buf[lo:hi],
// p := &buf[i], tm := bufPtr) and reports when an alias
//
//   - is assigned to a field or element of anything that is not itself the
//     buffer (retention),
//   - is assigned to a package-level variable (retention),
//   - is sent on a channel (handoff to an unknown lifetime),
//   - is referenced inside a `go` statement's function literal (outlives
//     the call), or
//   - is returned, when the scratch is a slice or when the returned
//     expression is an interior alias rather than the buffer itself.
//
// Returning the buffer pointer verbatim (return tm / return inst) is NOT a
// finding: that is the documented handoff idiom — Run returns its buf so
// callers can thread it — and the caller already owns the buffer. What may
// not escape is an interior view (return buf.Paths, return buf[:n]) that
// detaches a piece of the buffer from the visible reuse contract.
package scratchbuf

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/lintutil"
)

// Analyzer is the scratchbuf pass.
var Analyzer = &analysis.Analyzer{
	Name: "scratchbuf",
	Doc:  "reused scratch buffers must not be retained, aliased into fields, sent, or escape the call",
	Run:  run,
}

// KnownScratch maps (*types.Func).FullName of contract-bearing functions to
// the indices of their scratch parameters, for buffers whose names are
// domain words rather than buf/scratch.
var KnownScratch = map[string][]int{
	"(*repro/internal/variation.Sampler).SampleInto":      {0}, // die is the reused per-worker buffer
	"(*repro/internal/variation.Sampler).SampleBlockInto": {0}, // blk is the reused per-worker SoA block
}

func run(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			params := scratchParams(pass, fd)
			if len(params) > 0 {
				check(pass, fd, params)
			}
		}
	}
	return nil, nil
}

// scratchParams returns the scratch parameter objects of fd.
func scratchParams(pass *analysis.Pass, fd *ast.FuncDecl) []*types.Var {
	fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return nil
	}
	sig := fn.Signature()
	var known map[int]bool
	if idxs, ok := KnownScratch[fn.FullName()]; ok {
		known = map[int]bool{}
		for _, i := range idxs {
			known[i] = true
		}
	}
	var out []*types.Var
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		if known[i] || (scratchName(p.Name()) && refLike(p.Type())) {
			out = append(out, p)
		}
	}
	return out
}

func scratchName(name string) bool {
	return name == "buf" || name == "scratch" ||
		strings.HasSuffix(name, "Buf") || strings.HasSuffix(name, "Scratch")
}

// refLike reports whether t is a type worth tracking as a buffer (slices
// and pointers; value copies cannot retain).
func refLike(t types.Type) bool {
	switch types.Unalias(t).(type) {
	case *types.Slice, *types.Pointer:
		return true
	}
	return false
}

// checker tracks the alias set of one function's scratch parameters.
type checker struct {
	pass    *analysis.Pass
	aliases map[types.Object]bool
	results *types.Tuple
}

func check(pass *analysis.Pass, fd *ast.FuncDecl, params []*types.Var) {
	c := &checker{pass: pass, aliases: map[types.Object]bool{}}
	if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
		c.results = fn.Signature().Results()
	}
	for _, p := range params {
		c.aliases[p] = true
	}
	// Fixed point: local aliases can chain (x := buf; y := x[2:]).
	for {
		before := len(c.aliases)
		ast.Inspect(fd.Body, c.propagate)
		if len(c.aliases) == before {
			break
		}
	}
	c.walk(fd.Body)
}

// propagate grows the alias set: a local assigned an alias-derived
// reference becomes an alias itself.
func (c *checker) propagate(n ast.Node) bool {
	switch st := n.(type) {
	case *ast.AssignStmt:
		if len(st.Lhs) != len(st.Rhs) {
			return true
		}
		for i := range st.Lhs {
			if !c.aliasExpr(st.Rhs[i]) {
				continue
			}
			if id, ok := ast.Unparen(st.Lhs[i]).(*ast.Ident); ok && id.Name != "_" {
				if obj, ok := lintutil.ObjectOf(c.pass.TypesInfo, id).(*types.Var); ok && obj.Parent() != obj.Pkg().Scope() {
					c.aliases[obj] = true
				}
			}
		}
	case *ast.ValueSpec:
		for i, v := range st.Values {
			if i < len(st.Names) && c.aliasExpr(v) {
				if obj, ok := c.pass.TypesInfo.Defs[st.Names[i]].(*types.Var); ok && obj.Parent() != obj.Pkg().Scope() {
					c.aliases[obj] = true
				}
			}
		}
	}
	return true
}

// aliasExpr reports whether e evaluates to a reference into the scratch
// buffer.
func (c *checker) aliasExpr(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Ident:
		obj := lintutil.ObjectOf(c.pass.TypesInfo, x)
		return obj != nil && c.aliases[obj]
	case *ast.ParenExpr:
		return c.aliasExpr(x.X)
	case *ast.SliceExpr:
		return c.aliasExpr(x.X)
	case *ast.StarExpr:
		return c.aliasExpr(x.X)
	case *ast.UnaryExpr:
		return x.Op.String() == "&" && c.aliasExpr(x.X)
	case *ast.SelectorExpr:
		// buf.Paths, buf.DelayScale: interior references share backing.
		return c.aliasExpr(x.X)
	case *ast.IndexExpr:
		// buf[i] aliases only when the element itself is reference-like
		// (e.g. [][]float64); a scalar element is a copy.
		if !c.aliasExpr(x.X) {
			return false
		}
		tv, ok := c.pass.TypesInfo.Types[x]
		return ok && containsRef(tv.Type, 0)
	case *ast.TypeAssertExpr:
		return c.aliasExpr(x.X)
	case *ast.CallExpr:
		if lintutil.IsConversion(c.pass.TypesInfo, x) && len(x.Args) == 1 {
			return c.aliasExpr(x.Args[0])
		}
		// append(buf, ...) may keep buf's backing array.
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "append" && len(x.Args) > 0 {
			return c.aliasExpr(x.Args[0])
		}
		return false
	default:
		return false
	}
}

// containsRef reports whether values of t can reference other memory.
func containsRef(t types.Type, depth int) bool {
	if depth > 4 {
		return true // give up conservatively
	}
	switch u := types.Unalias(t).Underlying().(type) {
	case *types.Basic:
		return u.Kind() == types.String || u.Kind() == types.UnsafePointer
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Interface, *types.Signature:
		return true
	case *types.Array:
		return containsRef(u.Elem(), depth+1)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsRef(u.Field(i).Type(), depth+1) {
				return true
			}
		}
		return false
	default:
		return true
	}
}

// walk reports violations with the converged alias set.
func (c *checker) walk(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i := range st.Lhs {
				rhs := st.Rhs[0]
				if len(st.Lhs) == len(st.Rhs) {
					rhs = st.Rhs[i]
				}
				if c.aliasExpr(rhs) {
					c.checkStore(st.Lhs[i], rhs)
				}
			}
		case *ast.SendStmt:
			if c.aliasExpr(st.Value) {
				c.pass.Reportf(st.Value.Pos(), "scratch buffer sent on a channel: the receiver's lifetime is unknown, so the next reuse would overwrite state it still holds")
			}
		case *ast.GoStmt:
			if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
				c.checkGoroutine(lit)
			}
			for _, arg := range st.Call.Args {
				if c.aliasExpr(arg) {
					c.pass.Reportf(arg.Pos(), "scratch buffer passed to a spawned goroutine: it outlives the call, breaking the caller-owned reuse contract")
				}
			}
		case *ast.ReturnStmt:
			for i, res := range st.Results {
				c.checkReturn(i, len(st.Results), res)
			}
		}
		return true
	})
}

// checkStore flags alias stores whose destination is not the buffer itself.
// Writing INTO the buffer (tm.ArrPS = ..., buf[i] = ...) is the whole point
// and stays silent; writing the buffer into something else retains it.
func (c *checker) checkStore(lhs ast.Expr, rhs ast.Expr) {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if obj, ok := lintutil.ObjectOf(c.pass.TypesInfo, l).(*types.Var); ok && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			c.pass.Reportf(rhs.Pos(), "scratch buffer stored in package-level variable %s: reused buffers must stay call-local", l.Name)
		}
	case *ast.SelectorExpr:
		if root := lintutil.RootIdent(l); root != nil {
			if obj := lintutil.ObjectOf(c.pass.TypesInfo, root); obj != nil && c.aliases[obj] {
				return // writing into the buffer's own fields
			}
		}
		c.pass.Reportf(rhs.Pos(), "scratch buffer retained in field %s: the next call reuses the buffer and silently corrupts whatever holds this reference", exprString(l))
	case *ast.IndexExpr:
		if root := lintutil.RootIdent(l); root != nil {
			if obj := lintutil.ObjectOf(c.pass.TypesInfo, root); obj != nil && c.aliases[obj] {
				return
			}
		}
		c.pass.Reportf(rhs.Pos(), "scratch buffer stored into a container that outlives the call")
	}
}

// checkGoroutine flags any alias referenced inside a go'd function literal.
func (c *checker) checkGoroutine(lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := lintutil.ObjectOf(c.pass.TypesInfo, id); obj != nil && c.aliases[obj] {
			c.pass.Reportf(id.Pos(), "scratch buffer %s captured by a spawned goroutine: it outlives the call, breaking the caller-owned reuse contract", id.Name)
		}
		return true
	})
}

// checkReturn flags the returned aliases that hide the handoff. Returning
// the buffer itself — `return tm`, `return buf[:n]`, `return append(buf,
// x)` — is the documented idiom: the caller handed the buffer in and gets
// it (possibly regrown) back, ownership visible end to end. What may NOT be
// returned is
//
//   - an interior view of a pointer buffer (return buf.Paths): the piece
//     escapes while the handoff disappears from the signature, or
//   - an alias through an interface-typed result: the buffer escapes
//     type-erased, so no caller can see it must not be retained.
func (c *checker) checkReturn(i, n int, res ast.Expr) {
	if !c.aliasExpr(res) {
		return
	}
	if c.results != nil && n == c.results.Len() && i < c.results.Len() {
		if _, isIface := types.Unalias(c.results.At(i).Type()).Underlying().(*types.Interface); isIface {
			c.pass.Reportf(res.Pos(), "scratch buffer returned through an interface-typed result: the reuse contract is erased with the type — return the concrete buffer or copy out")
			return
		}
	}
	switch ast.Unparen(res).(type) {
	case *ast.Ident, *ast.SliceExpr:
		return // whole-buffer handoff / grow idiom
	case *ast.CallExpr:
		return // append(buf, ...) style regrowth, vetted by aliasExpr
	}
	c.pass.Reportf(res.Pos(), "interior alias of a scratch buffer returned: a view of the reused buffer escapes while the visible handoff disappears — return the whole buffer or copy the data out")
}

func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprString(x.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprString(x.X)
	default:
		return "?"
	}
}
