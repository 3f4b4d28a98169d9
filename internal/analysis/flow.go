package analysis

import (
	"go/ast"
	"go/types"
)

// Flow layer — the lightweight intra-procedural dataflow and intra-package
// callgraph machinery the flow-aware analyzers (bufferdiscipline,
// coastpure) share, and which bitsizeaudit's bounded callee expansion is
// built on. Everything here is derived from one type-checked
// Pass; nothing crosses package boundaries (cross-package calls resolve to
// no declaration and simply end the walk, matching the per-package
// enforcement scope the other analyzers already use for tracked fields).

// funcIndex maps every function and method declared in the package to its
// declaration, keyed by the types object, so call sites resolve to bodies.
func (p *Pass) funcIndex() map[*types.Func]*ast.FuncDecl {
	out := map[*types.Func]*ast.FuncDecl{}
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				if fo, ok := p.TypesInfo.Defs[fn.Name].(*types.Func); ok {
					out[fo] = fn
				}
			}
		}
	}
	return out
}

// calleeOf resolves a call expression to the invoked function object
// (package function, method, or interface method), nil for builtins,
// conversions and indirect calls through function values.
func (p *Pass) calleeOf(call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = p.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		obj = p.TypesInfo.Uses[fun.Sel]
	case *ast.IndexExpr: // generic instantiation f[T](...) / pkg.F[T](...)
		obj = p.instantiatedObj(fun.X)
	case *ast.IndexListExpr:
		obj = p.instantiatedObj(fun.X)
	}
	fo, _ := obj.(*types.Func)
	return fo
}

// instantiatedObj resolves the function expression under an explicit generic
// instantiation (a plain name or a qualified pkg.Name).
func (p *Pass) instantiatedObj(e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return p.TypesInfo.Uses[x]
	case *ast.SelectorExpr:
		return p.TypesInfo.Uses[x.Sel]
	}
	return nil
}

// reachableFrom computes the intra-package call closure of the given roots:
// every declared function transitively called from a root body. Interface
// and cross-package calls end the walk at the boundary; the closure is what
// this package can be held to.
func (p *Pass) reachableFrom(roots []*ast.FuncDecl, funcDecls map[*types.Func]*ast.FuncDecl) map[*ast.FuncDecl]bool {
	seen := map[*ast.FuncDecl]bool{}
	var visit func(fn *ast.FuncDecl)
	visit = func(fn *ast.FuncDecl) {
		if fn == nil || fn.Body == nil || seen[fn] {
			return
		}
		seen[fn] = true
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if fo := p.calleeOf(call); fo != nil {
					visit(funcDecls[fo])
				}
			}
			return true
		})
	}
	for _, r := range roots {
		visit(r)
	}
	return seen
}

// snapshotVars runs the flow-insensitive fixpoint over one function body:
// a local is a snapshot pointer when some value assigned to it derives from
// View.Self/View.Neighbour (or from another snapshot pointer, through field
// selection, indexing, dereference or a type assertion). Ranging over a
// snapshot-derived slice taints the element variable. Taint only grows, so
// the loop terminates; the bound is a safety net.
func (p *Pass) snapshotVars(fn *ast.FuncDecl) map[*types.Var]bool {
	taint := map[*types.Var]bool{}
	mark := func(lhs ast.Expr) bool {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return false
		}
		v, ok := p.objOf(id).(*types.Var)
		if !ok || taint[v] {
			return false
		}
		taint[v] = true
		return true
	}
	for pass := 0; pass < 8; pass++ {
		changed := false
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true // tuple results are never snapshot pointers
				}
				for i, lhs := range n.Lhs {
					if p.fromSnapshot(n.Rhs[i], taint) && mark(lhs) {
						changed = true
					}
				}
			case *ast.RangeStmt:
				if n.Value != nil && p.fromSnapshot(n.X, taint) && mark(n.Value) {
					changed = true
				}
			}
			return true
		})
		if !changed {
			break
		}
	}
	return taint
}

// objOf resolves an identifier to its object (use or definition site).
func (p *Pass) objOf(id *ast.Ident) types.Object {
	if o, ok := p.TypesInfo.Uses[id]; ok {
		return o
	}
	return p.TypesInfo.Defs[id]
}

// fromSnapshot reports whether e evaluates to memory of the frozen read
// snapshot under the current variable taint. The View accessors are
// recognized by method name and shape.
func (p *Pass) fromSnapshot(e ast.Expr, taint map[*types.Var]bool) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		v, ok := p.objOf(e).(*types.Var)
		return ok && taint[v]
	case *ast.CallExpr:
		sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr)
		if !ok {
			return false
		}
		return sel.Sel.Name == "Self" && len(e.Args) == 0 ||
			sel.Sel.Name == "Neighbour" && len(e.Args) == 1
	case *ast.TypeAssertExpr:
		return p.fromSnapshot(e.X, taint) // v.Self().(*SState) keeps the taint
	case *ast.SelectorExpr:
		return p.fromSnapshot(e.X, taint)
	case *ast.IndexExpr:
		return p.fromSnapshot(e.X, taint)
	case *ast.StarExpr:
		return p.fromSnapshot(e.X, taint)
	case *ast.UnaryExpr:
		return p.fromSnapshot(e.X, taint)
	}
	return false
}
