package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"execmodels/internal/lint/dataflow"
)

// Goleak enforces goroutine lifecycle discipline in the executor
// packages: every go statement must have a statically visible completion
// edge — a wg.Done paired with a dominating wg.Add, a channel
// close/send/receive, or a context-cancellation receive — so idle
// thieves and ping loops cannot leak past wg.Wait. Edges are found
// interprocedurally: `go worker(&wg)` counts when worker (or a helper it
// calls) does the Done.
type Goleak struct {
	// Packages is the scope, matched as import-path suffixes.
	Packages []string
}

// NewGoleak returns the check scoped to the packages that spawn
// goroutines on behalf of the executors, plus the serving layer whose
// worker pool must drain cleanly on shutdown.
func NewGoleak() *Goleak {
	return &Goleak{Packages: []string{"internal/core", "internal/serve"}}
}

func (g *Goleak) Name() string { return "goleak" }
func (g *Goleak) Doc() string {
	return "every go statement in the executor packages needs a completion edge (wg.Add/Done pairing, channel close/send/receive, or context cancel)"
}

// AppliesTo scopes the check to the executor packages.
func (g *Goleak) AppliesTo(pkgPath string) bool {
	for _, p := range g.Packages {
		if hasSuffixPath(pkgPath, p) {
			return true
		}
	}
	return false
}

// Run analyzes a single package (fixture mode).
func (g *Goleak) Run(pkg *Package) []Finding {
	return g.RunProgram([]*Package{pkg})
}

// RunProgram analyzes all packages together; goroutine targets may live
// outside the scoped packages.
func (g *Goleak) RunProgram(pkgs []*Package) []Finding {
	dfp := dataflowPkgs(pkgs)
	eng := dataflow.New(dfp)
	sums := eng.Completions()

	var out []Finding
	for i, pkg := range pkgs {
		if !g.AppliesTo(pkg.Path) {
			continue
		}
		dp := dfp[i]
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				params := dataflow.ParamsOf(dp, fd)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					gs, ok := n.(*ast.GoStmt)
					if !ok {
						return true
					}
					if f := g.checkGo(eng, dp, fd, params, gs, sums); f != nil {
						out = append(out, *f)
					}
					return true
				})
			}
		}
	}
	return out
}

// checkGo verifies one go statement and returns a finding when no
// acceptable completion edge exists.
func (g *Goleak) checkGo(eng *dataflow.Engine, pkg *dataflow.Pkg, fd *ast.FuncDecl, params map[types.Object]int, gs *ast.GoStmt, sums map[string][]dataflow.Completion) *Finding {
	pos := pkg.Fset.Position(gs.Pos())
	fail := func(msg string) *Finding {
		return &Finding{Pos: pos, Check: g.Name(), Message: msg}
	}

	var comps []dataflow.SiteCompletion
	if lit, ok := unparenExpr(gs.Call.Fun).(*ast.FuncLit); ok {
		comps = eng.BodyCompletions(pkg, params, lit.Body, sums)
	} else {
		obj, callee, _ := eng.Callee(pkg, gs.Call)
		if obj == nil {
			return fail("goroutine target is a function value — cannot statically verify a completion edge")
		}
		if callee == nil {
			return fail("goroutine target " + obj.Name() + " is outside the analyzed program — cannot verify a completion edge")
		}
		// Analyzing the call expression itself re-roots the callee's
		// summary at this call's arguments, so a Done on a
		// *sync.WaitGroup parameter pairs with the caller's wg.Add.
		comps = eng.BodyCompletions(pkg, params, gs.Call, sums)
	}
	if len(comps) == 0 {
		return fail("goroutine has no completion edge: no wg.Done, channel close/send/receive, or context cancellation on any path")
	}

	// Any channel-shaped edge is enough. A wg.Done edge additionally
	// needs a wg.Add before the launch when the WaitGroup is local to
	// this function (for parameters and globals the pairing is the
	// caller's contract).
	needAdd := false
	var wgObj types.Object
	for _, c := range comps {
		switch c.Kind {
		case dataflow.CompleteClose, dataflow.CompleteSend, dataflow.CompleteRecv:
			return nil
		case dataflow.CompleteDone:
			if c.RootObj == nil {
				return nil // e.g. Done on an expression we cannot root
			}
			if _, isParam := params[c.RootObj]; isParam {
				return nil
			}
			if v, isVar := c.RootObj.(*types.Var); isVar && v.Parent() != nil && v.Parent().Parent() == types.Universe {
				return nil // package-level WaitGroup
			}
			if addBefore(pkg, fd, c.RootObj, gs.Pos()) {
				return nil
			}
			needAdd = true
			wgObj = c.RootObj
		}
	}
	if needAdd {
		name := "wg"
		if wgObj != nil {
			name = wgObj.Name()
		}
		return fail("goroutine calls " + name + ".Done but no " + name + ".Add dominates the go statement — wg.Wait can return before this worker finishes")
	}
	return fail("goroutine has no completion edge: no wg.Done, channel close/send/receive, or context cancellation on any path")
}

// addBefore reports whether obj.Add(...) is called somewhere in fd's
// body lexically before pos.
func addBefore(pkg *dataflow.Pkg, fd *ast.FuncDecl, obj types.Object, pos token.Pos) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() >= pos {
			return true
		}
		sel, ok := unparenExpr(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
		if !ok || !dataflow.IsWaitGroupAdd(fn) {
			return true
		}
		if base, okBase := baseIdentObj(pkg, sel.X); okBase && base == obj {
			found = true
		}
		return true
	})
	return found
}

// baseIdentObj resolves &x, (*x), x to x's object.
func baseIdentObj(pkg *dataflow.Pkg, e ast.Expr) (types.Object, bool) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil, false
			}
			e = x.X
		case *ast.Ident:
			if o := pkg.Info.Uses[x]; o != nil {
				return o, true
			}
			return nil, false
		default:
			return nil, false
		}
	}
}
