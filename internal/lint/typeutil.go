package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// Import paths of the packages whose types anchor the rules.
const (
	metricsPath = "nowover/internal/metrics"
	xrandPath   = "nowover/internal/xrand"
)

// deref strips one level of pointer.
func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// namedAs reports whether t (or *t) is the named type path.name.
func namedAs(t types.Type, path, name string) bool {
	n, ok := deref(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == path
}

// isMap reports whether t's underlying type is a map.
func isMap(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// isChan reports whether t's underlying type is a channel.
func isChan(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// isFloat reports whether t's underlying type is a floating-point kind.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// baseIdent walks selector/index/star/paren chains down to the root
// identifier: w.stats.MaxByzFractionEver -> w, a[i] -> a.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// declaredWithin reports whether obj's declaration lies inside node.
func declaredWithin(obj types.Object, node ast.Node) bool {
	return obj != nil && obj.Pos() >= node.Pos() && obj.Pos() <= node.End()
}

// pkgFuncCall resolves a call of the form pkg.Fn where pkg is an imported
// package name, returning (import path, function name, true).
func pkgFuncCall(p *Pass, call *ast.CallExpr) (string, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", "", false
	}
	pn, ok := p.ObjectOf(id).(*types.PkgName)
	if !ok {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// methodCall resolves a call of the form recv.M(...), returning the
// receiver expression, its type and the method name. Package-level
// function calls return ok=false.
func methodCall(p *Pass, call *ast.CallExpr) (recv ast.Expr, recvType types.Type, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, nil, "", false
	}
	s, isMethod := p.Pkg.Info.Selections[sel]
	if !isMethod || s.Kind() != types.MethodVal {
		return nil, nil, "", false
	}
	return sel.X, s.Recv(), sel.Sel.Name, true
}

// lookupConstInt finds an integer constant by name in a package visible
// from the pass (the package itself or one of its direct imports).
func lookupConstInt(p *Pass, path, name string) (int64, bool) {
	var scope *types.Scope
	if p.Pkg.Types.Path() == path {
		scope = p.Pkg.Types.Scope()
	} else {
		for _, imp := range p.Pkg.Types.Imports() {
			if imp.Path() == path {
				scope = imp.Scope()
				break
			}
		}
	}
	if scope == nil {
		return 0, false
	}
	c, ok := scope.Lookup(name).(*types.Const)
	if !ok || c.Val() == nil {
		return 0, false
	}
	return constant.Int64Val(constant.ToInt(c.Val()))
}
