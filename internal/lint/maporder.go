package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"execmodels/internal/lint/dataflow"
)

// MapOrder flags `range` over a map whose loop body makes the iteration
// order observable — the canonical Go nondeterminism source, and the one
// that silently breaks this repository's byte-identical-output guarantee.
// A body (directly or through calls, via the dataflow effect summaries)
// is order-observable when it
//
//   - appends to a slice that outlives the loop (unless that slice is
//     sorted later in the same function — the sortedKeys idiom),
//   - writes an io.Writer or other exporter-shaped destination,
//   - charges the obs metric registry, or
//   - accumulates into a float that outlives the loop (float addition
//     does not associate, so even a "sum" depends on visit order).
//
// Findings are reported at the range statement, so a single
// //lint:ignore maporder <reason> covers the whole loop; the message
// names the effect site (and call chain, for effects inside helpers).
type MapOrder struct {
	// Packages are import-path suffixes the check applies to.
	Packages []string
}

// NewMapOrder returns the analyzer scoped to every package whose state
// feeds the deterministic, byte-identical outputs.
func NewMapOrder() *MapOrder {
	return &MapOrder{Packages: []string{
		"internal/core",
		"internal/deque",
		"internal/hypergraph",
		"internal/semimatching",
		"internal/obs",
		"internal/cluster",
		"internal/bench",
	}}
}

// Name implements Analyzer.
func (*MapOrder) Name() string { return "maporder" }

// Doc implements Analyzer.
func (*MapOrder) Doc() string {
	return "map iteration feeding slices, writers, registry charges or float sums must sort keys first"
}

// AppliesTo implements Analyzer.
func (m *MapOrder) AppliesTo(pkgPath string) bool {
	for _, suffix := range m.Packages {
		if hasSuffixPath(pkgPath, suffix) {
			return true
		}
	}
	return false
}

// Run implements Analyzer on a single package (fixture tests).
func (m *MapOrder) Run(pkg *Package) []Finding {
	return m.RunProgram([]*Package{pkg})
}

// RunProgram implements ProgramAnalyzer.
func (m *MapOrder) RunProgram(pkgs []*Package) []Finding {
	dfp := dataflowPkgs(pkgs)
	eng := dataflow.New(dfp)
	espec := dataflow.EffectSpec{IsCharge: isRegistryCharge}
	sums := eng.Effects(espec)

	var out []Finding
	for i, pkg := range pkgs {
		if !m.AppliesTo(pkg.Path) {
			continue
		}
		dp := dfp[i]
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				sorted := sortedRoots(pkg, fd.Body)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					rs, ok := n.(*ast.RangeStmt)
					if !ok || !isMapRange(pkg, rs) {
						return true
					}
					out = append(out, m.checkRange(pkg, dp, eng, espec, sums, fd, rs, sorted)...)
					return true
				})
			}
		}
	}
	return out
}

// checkRange reports the order-observable effects of one map range.
func (m *MapOrder) checkRange(pkg *Package, dp *dataflow.Pkg, eng *dataflow.Engine, espec dataflow.EffectSpec, sums map[string][]dataflow.Effect, fd *ast.FuncDecl, rs *ast.RangeStmt, sorted map[types.Object]bool) []Finding {
	pos := pkg.Fset.Position(rs.Pos())
	var out []Finding
	seen := map[string]bool{}
	report := func(what string, via dataflow.Path) {
		if seen[what] {
			return
		}
		seen[what] = true
		out = append(out, Finding{
			Pos:     pos,
			Check:   m.Name(),
			Message: fmt.Sprintf("map iteration order is observable: %s; sort the keys and iterate the sorted slice", what),
			Path:    via,
		})
	}

	for _, ef := range eng.DirectEffects(dp, fd, rs.Body, espec, sums) {
		// Effects on state that dies inside the loop are harmless.
		if dataflow.IsLocalRoot(ef.Root) && ef.RootObj != nil && within(rs.Body, ef.RootObj.Pos()) {
			continue
		}
		where := fmt.Sprintf("%s (%s:%d)", ef.Desc, ef.Pos.Filename, ef.Pos.Line)
		switch ef.Kind {
		case dataflow.EffectAppend:
			// The sortedKeys idiom: collect-then-sort is order-safe.
			if ef.RootObj != nil && sorted[ef.RootObj] {
				continue
			}
			report("unsorted "+where, ef.Via)
		case dataflow.EffectWrite, dataflow.EffectCharge:
			report(where, ef.Via)
		}
	}

	// Float accumulation into state that outlives the loop: the sum's
	// low-order bits depend on visit order.
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || (as.Tok != token.ADD_ASSIGN && as.Tok != token.SUB_ASSIGN) {
			return true
		}
		for _, lhs := range as.Lhs {
			if !isFloatExpr(pkg, lhs) {
				continue
			}
			obj := baseObject(pkg, lhs)
			if obj != nil && within(rs.Body, obj.Pos()) {
				continue
			}
			p := pkg.Fset.Position(as.Pos())
			report(fmt.Sprintf("float accumulation %s (%s:%d) — addition order changes the rounding", exprText(lhs), p.Filename, p.Line), nil)
		}
		return true
	})
	return out
}

// isMapRange reports whether the range statement iterates a map.
func isMapRange(pkg *Package, rs *ast.RangeStmt) bool {
	if pkg.Info == nil {
		return false
	}
	tv, ok := pkg.Info.Types[rs.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// sortedRoots collects the base objects of slices passed to sort.* /
// slices.Sort* anywhere in the body — appends into these are considered
// order-safe (collect-then-sort).
func sortedRoots(pkg *Package, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	if pkg.Info == nil {
		return out
	}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := pkg.Info.Uses[id].(*types.PkgName)
		if !ok {
			return true
		}
		switch pn.Imported().Path() {
		case "sort", "slices":
		default:
			return true
		}
		if obj := baseObject(pkg, call.Args[0]); obj != nil {
			out[obj] = true
		}
		return true
	})
	return out
}

// baseObject walks an expression to its base identifier's object.
func baseObject(pkg *Package, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.Ident:
			if pkg.Info == nil {
				return nil
			}
			if obj := pkg.Info.Uses[x]; obj != nil {
				return obj
			}
			return pkg.Info.Defs[x]
		default:
			return nil
		}
	}
}

// within reports whether pos falls inside node's extent.
func within(node ast.Node, pos token.Pos) bool {
	return node.Pos() <= pos && pos < node.End()
}

// isFloatExpr reports whether the expression has a floating-point type.
func isFloatExpr(pkg *Package, e ast.Expr) bool {
	if pkg.Info == nil {
		return false
	}
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// exprText renders a small lvalue for diagnostics.
func exprText(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprText(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprText(x.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprText(x.X)
	case *ast.ParenExpr:
		return exprText(x.X)
	}
	return "value"
}
