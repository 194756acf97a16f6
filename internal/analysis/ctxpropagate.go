package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// CtxPropagate enforces the cancellation contract (ROADMAP "Scoring
// kernel", cancellation points): every blocking entrypoint in the executor
// and server threads a context.Context down to the worker pool, and the
// only sanctioned context.Background() is inside an exported
// compatibility wrapper Foo that delegates directly to FooContext.
//
// Rules, in non-test executor/server code:
//
//  1. context.TODO() is always an error — TODO marks an unfinished
//     migration, and this codebase finished it in PR 3.
//  2. context.Background() is allowed only as an argument of a call to
//     FooContext made from inside Foo itself (the documented wrapper
//     pattern: RunGrouped → RunGroupedContext, BuildVizIndex →
//     BuildVizIndexContext). Anywhere
//     else it severs an entrypoint from its caller's cancellation — the
//     exact bug class of the BuildVizIndex summary pass.
//  3. Passing a nil context is an error; use the non-Context wrapper or
//     context.Background() via one.
//  4. An exported function whose first parameter is a context.Context must
//     use it — a dropped ctx parameter is a silent cancellation leak.
//  5. A call to Foo while a context.Context is in scope is an error when a
//     FooContext exists (a method on the same receiver, or a function in
//     the caller's or the callee's package): the caller had a ctx and let
//     the work run uncancellable — the bug class of the batch driver's
//     auto-index build once calling BuildVizIndex. Calls inside Foo itself
//     are exempt.
var CtxPropagate = &Analyzer{
	Name: "ctxpropagate",
	Doc:  "blocking entrypoints must thread ctx; context.Background() only inside Foo→FooContext wrappers, context.TODO() and nil ctx never, and no Foo call with a ctx in scope when FooContext exists",
	AppliesTo: func(pkgPath string) bool {
		return strings.HasSuffix(pkgPath, "internal/executor") ||
			strings.HasSuffix(pkgPath, "internal/server")
	},
	Run: runCtxPropagate,
}

func runCtxPropagate(pass *Pass) error {
	funcs := indexFuncs(pass.Files)

	// contextVariants: names of declared functions/methods ending in
	// "Context", for the wrapper check.
	variants := map[string]bool{}
	for _, fd := range funcs.decls {
		if strings.HasSuffix(fd.Name.Name, "Context") {
			variants[fd.Name.Name] = true
		}
	}

	isCtxType := func(t types.Type) bool {
		n := derefNamed(t)
		return n != nil && n.Obj().Pkg() != nil &&
			n.Obj().Pkg().Path() == "context" && n.Obj().Name() == "Context"
	}

	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if isPkgCall(pass.Info, call, "context", "TODO") {
				pass.Reportf(call.Pos(), "context.TODO() in non-test code: thread the caller's ctx (or use the Foo→FooContext wrapper pattern)")
				return true
			}
			if isPkgCall(pass.Info, call, "context", "Background") {
				if !isWrapperDelegation(pass, funcs, call, variants) {
					pass.Reportf(call.Pos(), "context.Background() severs cancellation: accept a ctx (add a ...Context variant) or call through an existing wrapper")
				}
				return true
			}
			// Rule 5: the uncancellable Foo called with a ctx at hand.
			if fn := calleeFunc(pass.Info, call); fn != nil && hasContextVariant(pass.Pkg, fn) &&
				ctxInScope(pass.Pkg, call.Pos(), isCtxType) && !isSelfCall(pass.Info, funcs.enclosing(call.Pos()), fn) {
				pass.Reportf(call.Pos(), "%s called with a ctx in scope: call %sContext so the work honors cancellation", fn.Name(), fn.Name())
			}
			// Rule 3: nil passed where a context.Context is expected.
			sig := signatureOf(pass.Info, call)
			if sig != nil {
				for i, arg := range call.Args {
					id, ok := arg.(*ast.Ident)
					if !ok || id.Name != "nil" {
						continue
					}
					if _, isNil := pass.Info.ObjectOf(id).(*types.Nil); !isNil {
						continue // an identifier shadowing nil, not the literal
					}
					if pi := paramAt(sig, i); pi != nil && isCtxType(pi.Type()) {
						pass.Reportf(arg.Pos(), "nil context passed: use context.Background() through a wrapper, or thread the caller's ctx")
					}
				}
			}
			return true
		})
	}

	// Rule 4: exported entrypoints with a leading ctx parameter must use it.
	for _, fd := range funcs.decls {
		if !fd.Name.IsExported() || fd.Body == nil || fd.Type.Params == nil || len(fd.Type.Params.List) == 0 {
			continue
		}
		first := fd.Type.Params.List[0]
		if !isCtxType(pass.Info.TypeOf(first.Type)) || len(first.Names) == 0 {
			continue
		}
		name := first.Names[0]
		if name.Name == "_" {
			pass.Reportf(name.Pos(), "exported %s discards its ctx parameter: thread it into the blocking work it guards", fd.Name.Name)
			continue
		}
		obj := pass.Info.Defs[name]
		used := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && pass.Info.Uses[id] == obj {
				used = true
			}
			return !used
		})
		if !used {
			pass.Reportf(name.Pos(), "exported %s never uses its ctx parameter: thread it into the blocking work it guards", fd.Name.Name)
		}
	}
	return nil
}

// isWrapperDelegation reports whether the context.Background() call is an
// argument of a delegation call Foo → FooContext inside Foo itself.
func isWrapperDelegation(pass *Pass, funcs *funcIndex, bg *ast.CallExpr, variants map[string]bool) bool {
	fd := funcs.enclosing(bg.Pos())
	if fd == nil || strings.HasSuffix(fd.Name.Name, "Context") {
		return false
	}
	want := fd.Name.Name + "Context"
	if !variants[want] {
		return false
	}
	// The Background() call must appear as an argument of a call to the
	// Context variant.
	ok := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, okc := n.(*ast.CallExpr)
		if !okc {
			return true
		}
		callee := ""
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			callee = fun.Name
		case *ast.SelectorExpr:
			callee = fun.Sel.Name
		}
		if callee != want {
			return true
		}
		for _, arg := range call.Args {
			if arg == ast.Expr(bg) {
				ok = true
			}
		}
		return !ok
	})
	return ok
}

// calleeFunc resolves a call's static callee: a package-level function or a
// method (through a value, a pointer or an embedded field); nil for calls
// of function values, conversions and builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil
			}
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// hasContextVariant reports whether fn has a FooContext sibling: a method
// of the same name plus "Context" on fn's receiver type, or for a function,
// one declared in fn's package or in pkg (the caller's).
func hasContextVariant(pkg *types.Package, fn *types.Func) bool {
	if strings.HasSuffix(fn.Name(), "Context") {
		return false
	}
	name := fn.Name() + "Context"
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return false
	}
	if recv := sig.Recv(); recv != nil {
		obj, _, _ := types.LookupFieldOrMethod(recv.Type(), true, fn.Pkg(), name)
		_, ok := obj.(*types.Func)
		return ok
	}
	for _, p := range []*types.Package{fn.Pkg(), pkg} {
		if p == nil {
			continue
		}
		if _, ok := p.Scope().Lookup(name).(*types.Func); ok {
			return true
		}
	}
	return false
}

// ctxInScope reports whether a local variable or parameter of
// context.Context type is visible at pos (package-level variables do not
// count: they are not a request's context).
func ctxInScope(pkg *types.Package, pos token.Pos, isCtx func(types.Type) bool) bool {
	for s := pkg.Scope().Innermost(pos); s != nil && s != pkg.Scope() && s != types.Universe; s = s.Parent() {
		for _, name := range s.Names() {
			v, ok := s.Lookup(name).(*types.Var)
			if ok && v.Pos() < pos && isCtx(v.Type()) {
				return true
			}
		}
	}
	return false
}

// isSelfCall reports whether fd is the declaration of fn itself (a
// recursive call, exempt from rule 5).
func isSelfCall(info *types.Info, fd *ast.FuncDecl, fn *types.Func) bool {
	return fd != nil && info.Defs[fd.Name] == fn
}

func signatureOf(info *types.Info, call *ast.CallExpr) *types.Signature {
	tv, ok := info.Types[call.Fun]
	if !ok {
		return nil
	}
	sig, _ := tv.Type.(*types.Signature)
	return sig
}

// paramAt returns the parameter a positional argument binds to, folding
// variadic tails.
func paramAt(sig *types.Signature, i int) *types.Var {
	n := sig.Params().Len()
	if n == 0 {
		return nil
	}
	if sig.Variadic() && i >= n-1 {
		return sig.Params().At(n - 1)
	}
	if i < n {
		return sig.Params().At(i)
	}
	return nil
}
