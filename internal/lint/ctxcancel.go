package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"execmodels/internal/lint/dataflow"
)

// CtxCancel enforces cancellation discipline on the serving layer's
// request paths: every blocking operation reachable from an HTTP handler
// must be abandonable. A handler that blocks on a bare channel receive
// outlives its client — the connection is gone, the goroutine is not —
// and under load those orphans are the server's memory leak.
//
// Roots are functions with the `(http.ResponseWriter, *http.Request)`
// signature in the scoped packages; the walk follows static calls
// anywhere in the loaded program (a queue wait two helpers deep is still
// on the request path). In reachable code:
//
//   - bare channel sends, receives and range-over-channel are findings
//     unless the receive is itself a context-cancellation wait
//     (<-ctx.Done());
//   - a blocking select (no default case) must carry a cancellation or
//     deadline case: <-ctx.Done(), time.After, or a Timer/Ticker channel;
//   - time.Sleep is always a finding — a handler that needs to wait must
//     wait on something cancelable.
//
// Calls through function values and interface methods are opaque (not
// entered), the engine's standing precision limit.
type CtxCancel struct {
	// Packages is the root scope, matched as import-path suffixes.
	Packages []string
}

// NewCtxCancel returns the check scoped to the serving layer.
func NewCtxCancel() *CtxCancel {
	return &CtxCancel{Packages: []string{"internal/serve"}}
}

func (c *CtxCancel) Name() string { return "ctxcancel" }
func (c *CtxCancel) Doc() string {
	return "blocking operations reachable from HTTP handlers must select on ctx.Done() or a deadline; bare sends/receives and time.Sleep on request paths are findings"
}

// AppliesTo scopes the handler roots to the serving packages.
func (c *CtxCancel) AppliesTo(pkgPath string) bool {
	for _, p := range c.Packages {
		if hasSuffixPath(pkgPath, p) {
			return true
		}
	}
	return false
}

// Run analyzes a single package (fixture mode).
func (c *CtxCancel) Run(pkg *Package) []Finding {
	return c.RunProgram([]*Package{pkg})
}

// RunProgram walks the call graph from every handler root.
func (c *CtxCancel) RunProgram(pkgs []*Package) []Finding {
	dfp := dataflowPkgs(pkgs)
	eng := dataflow.New(dfp)

	var out []Finding
	visited := map[string]bool{}
	for i, pkg := range pkgs {
		if !c.AppliesTo(pkg.Path) {
			continue
		}
		dp := dfp[i]
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !isHandlerDecl(pkg, fd) {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				f := eng.Lookup(obj)
				if f == nil {
					continue
				}
				root := dataflow.Path{{
					Pos:  pkg.Fset.Position(fd.Pos()),
					Desc: "request handler " + dataflow.FuncName(f),
				}}
				c.walk(eng, dp, f, root, visited, &out)
			}
		}
	}
	return out
}

// walk scans one reachable function and recurses into its static callees.
// Each function is scanned once; the rendered path is the first root's.
func (c *CtxCancel) walk(eng *dataflow.Engine, dp *dataflow.Pkg, f *dataflow.Func, path dataflow.Path, visited map[string]bool, out *[]Finding) {
	if visited[f.ID] {
		return
	}
	visited[f.ID] = true
	fp := f.Pkg
	commOps, badSelects := classifySelects(fp, f.Decl.Body)

	emit := func(n ast.Node, msg, desc string) {
		pos := fp.Fset.Position(n.Pos())
		*out = append(*out, Finding{
			Pos:     pos,
			Check:   c.Name(),
			Message: msg,
			Path:    dataflow.ExtendPath(path, dataflow.Step{Pos: pos, Desc: desc}),
		})
	}
	for _, sel := range badSelects {
		emit(sel, "blocking select on a request path has no <-ctx.Done(), deadline, or default case — the handler cannot be canceled here",
			"uncancelable select")
	}
	ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SendStmt:
			if !commOps[n] {
				emit(x, "blocking channel send on "+types.ExprString(x.Chan)+" in a request path without selecting on ctx.Done() or a deadline",
					"bare send on "+types.ExprString(x.Chan))
			}
		case *ast.UnaryExpr:
			if x.Op != token.ARROW || commOps[n] {
				return true
			}
			if isCancelWait(fp, x.X) {
				return true // <-ctx.Done(): waiting for cancellation is the point
			}
			emit(x, "blocking channel receive from "+types.ExprString(x.X)+" in a request path without selecting on ctx.Done() or a deadline",
				"bare receive from "+types.ExprString(x.X))
		case *ast.RangeStmt:
			if t := exprType(fp, x.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					emit(x, "range over channel "+types.ExprString(x.X)+" in a request path — unbounded wait with no ctx.Done() or deadline",
						"range over "+types.ExprString(x.X))
				}
			}
		case *ast.CallExpr:
			obj, callee, _ := eng.Callee(fp, x)
			if obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "time" && obj.Name() == "Sleep" {
				emit(x, "time.Sleep on a request path — handlers must not sleep; wait on something cancelable (<-ctx.Done(), time.After in a select)",
					"time.Sleep")
				return true
			}
			if callee != nil {
				c.walk(eng, dp, callee, dataflow.ExtendPath(path, dataflow.Step{
					Pos:  fp.Fset.Position(x.Pos()),
					Desc: "calls " + dataflow.FuncName(callee),
				}), visited, out)
			}
		}
		return true
	})
}

// classifySelects partitions select statements: commOps collects the
// operation nodes that appear as select communication clauses (judged at
// the select level, not as bare ops), badSelects lists the selects that
// block without a cancellation path — no default case and no
// cancel/deadline communication.
func classifySelects(pkg *dataflow.Pkg, body ast.Node) (commOps map[ast.Node]bool, badSelects []*ast.SelectStmt) {
	commOps = map[ast.Node]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		hasDefault, hasCancel := false, false
		for _, clause := range sel.Body.List {
			cc, ok := clause.(*ast.CommClause)
			if !ok {
				continue
			}
			if cc.Comm == nil {
				hasDefault = true
				continue
			}
			var recvSrc ast.Expr
			switch stmt := cc.Comm.(type) {
			case *ast.SendStmt:
				commOps[stmt] = true
			case *ast.ExprStmt:
				if ue, isRecv := ast.Unparen(stmt.X).(*ast.UnaryExpr); isRecv && ue.Op == token.ARROW {
					commOps[ue] = true
					recvSrc = ue.X
				}
			case *ast.AssignStmt:
				if len(stmt.Rhs) == 1 {
					if ue, isRecv := ast.Unparen(stmt.Rhs[0]).(*ast.UnaryExpr); isRecv && ue.Op == token.ARROW {
						commOps[ue] = true
						recvSrc = ue.X
					}
				}
			}
			if recvSrc != nil && (isCancelWait(pkg, recvSrc) || isDeadlineSource(pkg, recvSrc)) {
				hasCancel = true
			}
		}
		if !hasDefault && !hasCancel {
			badSelects = append(badSelects, sel)
		}
		return true
	})
	return commOps, badSelects
}

// isCancelWait reports whether a receive source is a context-cancellation
// channel: ctx.Done() for any context.Context-shaped ctx (including
// r.Context().Done()).
func isCancelWait(pkg *dataflow.Pkg, src ast.Expr) bool {
	call, ok := ast.Unparen(src).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Name() != "Done" {
		return false
	}
	return fn.Pkg() != nil && fn.Pkg().Path() == "context"
}

// isDeadlineSource reports whether a receive source bounds the wait in
// time: time.After(d), or the C channel of a time.Timer/Ticker.
func isDeadlineSource(pkg *dataflow.Pkg, src ast.Expr) bool {
	switch x := ast.Unparen(src).(type) {
	case *ast.CallExpr:
		sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr)
		if !ok {
			return false
		}
		fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
		if !ok {
			return false
		}
		return fn.Pkg() != nil && fn.Pkg().Path() == "time" && (fn.Name() == "After" || fn.Name() == "Tick")
	case *ast.SelectorExpr:
		if x.Sel.Name != "C" {
			return false
		}
		t := exprType(pkg, x.X)
		for t != nil {
			if p, isPtr := t.(*types.Pointer); isPtr {
				t = p.Elem()
				continue
			}
			break
		}
		named, ok := t.(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			return false
		}
		name := named.Obj().Name()
		return named.Obj().Pkg().Path() == "time" && (name == "Timer" || name == "Ticker")
	}
	return false
}

// isHandlerDecl reports the `(http.ResponseWriter, *http.Request)`
// signature, function or method.
func isHandlerDecl(pkg *Package, fd *ast.FuncDecl) bool {
	obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Params().Len() != 2 {
		return false
	}
	if !isNetHTTPNamed(sig.Params().At(0).Type(), "ResponseWriter") {
		return false
	}
	p, ok := sig.Params().At(1).Type().(*types.Pointer)
	return ok && isNetHTTPNamed(p.Elem(), "Request")
}

// isNetHTTPNamed reports a named type from net/http.
func isNetHTTPNamed(t types.Type, name string) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != name {
		return false
	}
	return named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "net/http"
}

// exprType returns the type of an expression, nil when unknown.
func exprType(pkg *dataflow.Pkg, e ast.Expr) types.Type {
	if pkg.Info == nil {
		return nil
	}
	if tv, ok := pkg.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}
