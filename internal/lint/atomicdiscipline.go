package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"execmodels/internal/lint/dataflow"
)

// AtomicDiscipline enforces all-or-nothing atomicity on shared words: a
// field or package variable accessed through sync/atomic anywhere must be
// accessed atomically everywhere — one plain load beside an atomic.Add is
// a data race the happens-before reasoning cannot repair, and one the
// race detector only sees when a test happens to interleave it.
//
// Two rules:
//
//   - mixed access: every field/package var passed by address to an
//     old-style sync/atomic function (AddInt64, LoadInt64, ...) is
//     tracked program-wide; any plain (non-atomic) access to it in the
//     scoped packages is a finding. Accesses rooted at function-local
//     values are exempt — building a struct before publishing it is the
//     one legitimate plain-write window;
//   - typed atomics: an atomic.Int64/Uint64/Bool/Value/... may be
//     operated only through its methods and passed only by pointer.
//     Copying one as a value (assignment, argument, return, composite
//     literal) silently forks the counter.
//
// Known limit: a plain access in a package outside the scope below is not
// reported (the tracked-site collection is program-wide, the enforcement
// walk is scoped).
type AtomicDiscipline struct {
	// Packages is the enforcement scope, matched as import-path suffixes.
	Packages []string
}

// NewAtomicDiscipline returns the check scoped to the packages holding
// shared counters: the wall-clock executors, the serving layer and the
// work-stealing deque.
func NewAtomicDiscipline() *AtomicDiscipline {
	return &AtomicDiscipline{Packages: []string{"internal/core", "internal/serve", "internal/deque"}}
}

func (a *AtomicDiscipline) Name() string { return "atomicdiscipline" }
func (a *AtomicDiscipline) Doc() string {
	return "a field accessed via sync/atomic anywhere must be accessed atomically everywhere (pre-publication init exempt); typed atomics must never be copied as values"
}

// AppliesTo scopes enforcement to the concurrency-bearing packages.
func (a *AtomicDiscipline) AppliesTo(pkgPath string) bool {
	for _, p := range a.Packages {
		if hasSuffixPath(pkgPath, p) {
			return true
		}
	}
	return false
}

// Run analyzes a single package (fixture mode).
func (a *AtomicDiscipline) Run(pkg *Package) []Finding {
	return a.RunProgram([]*Package{pkg})
}

// atomicSite records where a word was first seen accessed atomically.
type atomicSite struct {
	pos token.Position
	fn  string
}

// RunProgram analyzes all packages together: atomic-use collection is
// program-wide, enforcement honors AppliesTo.
func (a *AtomicDiscipline) RunProgram(pkgs []*Package) []Finding {
	sites := map[string]atomicSite{}   // word key → first atomic access
	extents := map[string][]posRange{} // pkg path → atomic-call extents
	for _, pkg := range pkgs {
		a.collectAtomicUses(pkg, sites, extents)
	}

	var out []Finding
	for _, pkg := range pkgs {
		if !a.AppliesTo(pkg.Path) {
			continue
		}
		out = append(out, a.enforce(pkg, sites, extents[pkg.Path])...)
	}
	return out
}

// posRange is one half-open [lo, hi) position span.
type posRange struct{ lo, hi token.Pos }

func inRanges(rs []posRange, p token.Pos) bool {
	for _, r := range rs {
		if p >= r.lo && p < r.hi {
			return true
		}
	}
	return false
}

// collectAtomicUses records every word passed by address to an old-style
// sync/atomic function, and the call extents (so the atomic accesses
// themselves are not reported as plain ones).
func (a *AtomicDiscipline) collectAtomicUses(pkg *Package, sites map[string]atomicSite, extents map[string][]posRange) {
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			fn := atomicPkgFunc(pkg, call)
			if fn == nil {
				return true
			}
			extents[pkg.Path] = append(extents[pkg.Path], posRange{call.Pos(), call.End()})
			addr, ok := unparenExpr(call.Args[0]).(*ast.UnaryExpr)
			if !ok || addr.Op != token.AND {
				return true
			}
			if key := wordKey(pkg, addr.X); key != "" {
				if _, dup := sites[key]; !dup {
					sites[key] = atomicSite{pos: pkg.Fset.Position(call.Pos()), fn: fn.Name()}
				}
			}
			return true
		})
	}
}

// enforce reports plain accesses to tracked words and value copies of
// typed atomics in one package.
func (a *AtomicDiscipline) enforce(pkg *Package, sites map[string]atomicSite, extents []posRange) []Finding {
	var out []Finding
	dp := &dataflow.Pkg{Path: pkg.Path, Fset: pkg.Fset, Files: pkg.Files, Info: pkg.Info}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			params := dataflow.ParamsOf(dp, fd)
			out = append(out, a.enforceBody(pkg, dp, params, fd.Body, sites, extents)...)
		}
	}
	out = append(out, a.checkTypedCopies(pkg)...)
	return out
}

// enforceBody flags plain accesses to atomically-used words in one body.
func (a *AtomicDiscipline) enforceBody(pkg *Package, dp *dataflow.Pkg, params map[types.Object]int, body ast.Node, sites map[string]atomicSite, extents []posRange) []Finding {
	var out []Finding
	ast.Inspect(body, func(n ast.Node) bool {
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		key := wordKey(pkg, e)
		if key == "" {
			return true
		}
		site, tracked := sites[key]
		if !tracked || inRanges(extents, e.Pos()) {
			return true
		}
		if sel, isSel := e.(*ast.SelectorExpr); isSel {
			if isLocalPrePublication(pkg, params, sel.X) {
				return true // building the struct before it is shared
			}
		}
		pos := pkg.Fset.Position(e.Pos())
		out = append(out, Finding{
			Pos:   pos,
			Check: a.Name(),
			Message: fmt.Sprintf("plain access to %s, which is accessed atomically (atomic.%s at %s:%d) — mixed plain/atomic access on a shared word; use sync/atomic everywhere or keep plain writes before publication",
				key, site.fn, site.pos.Filename, site.pos.Line),
			Path: dataflow.Path{
				{Pos: site.pos, Desc: "atomic access to " + key + " (atomic." + site.fn + ")"},
				{Pos: pos, Desc: "plain access to " + key},
			},
		})
		return false
	})
	return out
}

// checkTypedCopies flags sync/atomic typed values (atomic.Int64, ...)
// used as values rather than operated through methods or passed by
// pointer.
func (a *AtomicDiscipline) checkTypedCopies(pkg *Package) []Finding {
	var out []Finding
	for _, file := range pkg.Files {
		var stack []ast.Node
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			defer func() { stack = append(stack, n) }()
			e, ok := n.(ast.Expr)
			if !ok || !isTypedAtomicExpr(pkg, e) {
				return true
			}
			if len(stack) == 0 || safeAtomicContext(stack[len(stack)-1], e) {
				return true
			}
			pos := pkg.Fset.Position(e.Pos())
			out = append(out, Finding{
				Pos:   pos,
				Check: a.Name(),
				Message: fmt.Sprintf("typed atomic %s used as a value — operate it through its methods and pass it by pointer; a copy silently forks the counter",
					types.ExprString(e)),
			})
			return true
		})
	}
	return out
}

// isTypedAtomicExpr reports a use (not declaration) of an expression
// whose type is a named type from sync/atomic.
func isTypedAtomicExpr(pkg *Package, e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Ident:
		if _, isUse := pkg.Info.Uses[x]; !isUse {
			return false
		}
	case *ast.SelectorExpr:
		// Field or variable selection; the type check below decides.
	default:
		return false
	}
	tv, ok := pkg.Info.Types[e]
	if !ok || !tv.IsValue() {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return false
	}
	return named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync/atomic"
}

// safeAtomicContext reports whether the parent node uses the typed atomic
// without copying it: a method/field selection on it, taking its address,
// or a dereference chain.
func safeAtomicContext(parent ast.Node, e ast.Expr) bool {
	switch p := parent.(type) {
	case *ast.SelectorExpr:
		return p.X == e // receiver of .Load()/.Add(); field chains
	case *ast.UnaryExpr:
		return p.Op == token.AND
	case *ast.StarExpr, *ast.ParenExpr:
		return true
	case *ast.IndexExpr:
		return p.X == e
	}
	return false
}

// atomicPkgFunc resolves a call to an old-style package-level sync/atomic
// function (atomic.AddInt64 and friends), nil otherwise.
func atomicPkgFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	sel, ok := unparenExpr(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return nil
	}
	if sig, isSig := fn.Type().(*types.Signature); isSig && sig.Recv() != nil {
		return nil // typed-atomic method, governed by the copy rule
	}
	return fn
}

// wordKey renders the stable identity of an atomically-accessible word:
// "pkgpath.Type.field" for struct fields, "pkgpath.var" for package-level
// variables, "" for anything else (locals, call results). String keys
// survive the loader type-checking a package twice; object identity does
// not.
func wordKey(pkg *Package, e ast.Expr) string {
	switch x := unparenExpr(e).(type) {
	case *ast.SelectorExpr:
		selInfo, ok := pkg.Info.Selections[x]
		if !ok || selInfo.Kind() != types.FieldVal {
			return ""
		}
		field, ok := selInfo.Obj().(*types.Var)
		if !ok || field.Pkg() == nil {
			return ""
		}
		t := selInfo.Recv()
		for {
			if p, isPtr := t.(*types.Pointer); isPtr {
				t = p.Elem()
				continue
			}
			break
		}
		named, ok := t.(*types.Named)
		if !ok {
			return ""
		}
		return field.Pkg().Path() + "." + named.Obj().Name() + "." + field.Name()
	case *ast.Ident:
		obj := pkg.Info.Uses[x]
		v, ok := obj.(*types.Var)
		if !ok || v.Pkg() == nil {
			return ""
		}
		if v.Parent() == nil || v.Parent().Parent() != types.Universe {
			return "" // not package-level
		}
		return v.Pkg().Path() + "." + v.Name()
	}
	return ""
}

// isLocalPrePublication reports whether the accessed struct is rooted at
// a function-local variable — the legitimate plain-write window between
// construction and publication. Parameters and receivers do not qualify:
// a *T handed in may already be shared.
func isLocalPrePublication(pkg *Package, params map[types.Object]int, base ast.Expr) bool {
	dp := &dataflow.Pkg{Path: pkg.Path, Fset: pkg.Fset, Files: pkg.Files, Info: pkg.Info}
	obj, ok := dataflow.RootObject(dp, params, base)
	if !ok {
		return false
	}
	if _, isParam := params[obj]; isParam {
		return false
	}
	v, isVar := obj.(*types.Var)
	if !isVar {
		return false
	}
	if v.Parent() != nil && v.Parent().Parent() == types.Universe {
		return false // package-level
	}
	return true
}
