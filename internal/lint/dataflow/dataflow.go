// Package dataflow is the function-summary-based interprocedural engine
// under execlint's clocktaint, maporder and lockset analyzers. It is
// built purely on go/ast + go/types (no x/tools dependency): the loader
// hands it parsed, type-checked packages; the engine indexes every
// function declaration under a stable symbolic ID, resolves static call
// edges through type information, and computes per-function transfer
// summaries by a bottom-up fixpoint over the call graph:
//
//   - taint summaries (taint.go): which results a function taints
//     unconditionally (it launders a source), which parameters flow into
//     which results, and which parameters reach a sink inside the
//     function — with a rendered source→call-chain→sink path on every
//     fact, so a diagnostic can show *how* a wall-clock value reached a
//     Result field three helpers away;
//   - order-effect summaries (effects.go): whether calling a function
//     from inside a map iteration makes the iteration order observable
//     (it appends to caller-visible slices, writes an io.Writer, or
//     charges the metric registry).
//
// The fixpoint is monotone over finite lattices (sets of parameter and
// result indices), so it terminates on any call graph including
// recursive and mutually recursive ones; iteration order is the sorted
// function-ID order, making summaries — and therefore every rendered
// path — deterministic.
//
// Known, deliberate precision limits: calls through function values and
// interface methods are treated as opaque (taint propagates
// conservatively from arguments to results but does not enter the
// callee), and function literals are analyzed as part of their enclosing
// function (sharing its environment) rather than as separate frames.
package dataflow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Pkg is the engine's view of one loaded package. internal/lint converts
// its own package representation into this; the engine never touches the
// filesystem.
type Pkg struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Info  *types.Info
}

// Step is one hop of a rendered dataflow path.
type Step struct {
	Pos  token.Position
	Desc string
}

// Path is a source-first chain of steps: the first step names the
// source, the last the sink (or the current frontier while a fact is
// still being propagated).
type Path []Step

// String renders the path as "desc (file:line) -> desc (file:line)".
func (p Path) String() string {
	var b strings.Builder
	for i, s := range p {
		if i > 0 {
			b.WriteString(" -> ")
		}
		b.WriteString(s.Desc)
		if s.Pos.IsValid() {
			fmt.Fprintf(&b, " (%s:%d)", s.Pos.Filename, s.Pos.Line)
		}
	}
	return b.String()
}

// maxPathSteps caps rendered paths. When a chain exceeds the cap the
// middle hop is dropped, keeping the source end and the sink frontier —
// the two ends are what a human needs to triage.
const maxPathSteps = 16

// extend returns p with s appended, respecting the cap. p is never
// mutated (facts are shared between lattice values).
func extend(p Path, s Step) Path {
	if len(p) >= maxPathSteps {
		out := make(Path, 0, maxPathSteps)
		out = append(out, p[:maxPathSteps/2]...)
		out = append(out, p[maxPathSteps/2+1:]...)
		return append(out, s)
	}
	out := make(Path, 0, len(p)+1)
	out = append(out, p...)
	return append(out, s)
}

// recvParam is the parameter index standing for a method receiver.
const recvParam = -1

// globalRoot marks state rooted at a package-level variable in effect
// summaries.
const globalRoot = -2

// localRoot marks state rooted at a function-local variable.
const localRoot = -3

// Func is one indexed function declaration.
type Func struct {
	ID   string
	Pkg  *Pkg
	Decl *ast.FuncDecl
	Obj  *types.Func // nil when type checking failed for the declaration

	// Source is set when the declaration carries a //lint:source
	// annotation in its doc comment: its results are treated as tainted
	// at every call site.
	Source     bool
	SourceDesc string
}

// name returns the function's display name ("pkg.Fn" or "pkg.(T).M"),
// short enough for path steps.
func (f *Func) name() string {
	short := f.Pkg.Path
	if i := strings.LastIndexByte(short, '/'); i >= 0 {
		short = short[i+1:]
	}
	if f.Decl.Recv != nil && len(f.Decl.Recv.List) == 1 {
		if tn := recvTypeName(f.Decl.Recv.List[0].Type); tn != "" {
			return short + "." + tn + "." + f.Decl.Name.Name
		}
	}
	return short + "." + f.Decl.Name.Name
}

// Engine holds the indexed program and caches summaries.
type Engine struct {
	pkgs  []*Pkg
	funcs map[string]*Func
	ids   []string // sorted, the deterministic iteration order

	flows map[string]map[int]map[int]bool // ParamFlows cache
}

// New indexes the given packages. Packages with partial type information
// are accepted; unresolved calls degrade to conservative propagation.
func New(pkgs []*Pkg) *Engine {
	e := &Engine{pkgs: pkgs, funcs: map[string]*Func{}}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				var obj *types.Func
				if pkg.Info != nil {
					obj, _ = pkg.Info.Defs[fd.Name].(*types.Func)
				}
				id := ""
				if obj != nil {
					id = FuncID(obj)
				}
				if id == "" {
					id = pkg.Path + "." + astFuncID(fd)
				}
				f := &Func{ID: id, Pkg: pkg, Decl: fd, Obj: obj}
				f.Source, f.SourceDesc = sourceAnnotation(fd, f)
				e.funcs[id] = f
			}
		}
	}
	e.ids = make([]string, 0, len(e.funcs))
	for id := range e.funcs {
		e.ids = append(e.ids, id)
	}
	sort.Strings(e.ids)
	return e
}

// ExtendPath is the exported form of extend: it returns p with s
// appended, respecting the path-length cap, without mutating p.
func ExtendPath(p Path, s Step) Path { return extend(p, s) }

// FuncName returns the short display name of an indexed function
// ("pkg.Fn" or "pkg.T.M").
func FuncName(f *Func) string { return f.name() }

// Lookup returns the indexed function for a resolved *types.Func, or nil
// when the callee is outside the loaded program.
func (e *Engine) Lookup(obj *types.Func) *Func {
	if obj == nil {
		return nil
	}
	return e.funcs[FuncID(obj)]
}

// FuncID renders the stable symbolic ID of a function: "pkg/path.Fn" for
// package-level functions, "pkg/path.(T).M" for methods. IDs survive
// re-type-checking (object identity does not: the loader checks a
// package once as an import and once as the analyzed package).
func FuncID(fn *types.Func) string {
	pkg := fn.Pkg()
	if pkg == nil {
		return "" // universe-scope methods like error.Error
	}
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
		}
		switch n := t.(type) {
		case *types.Named:
			return pkg.Path() + ".(" + n.Obj().Name() + ")." + fn.Name()
		default:
			return "" // receiver on a type parameter or unnamed type
		}
	}
	return pkg.Path() + "." + fn.Name()
}

// astFuncID is the fallback ID when the declaration did not type-check.
func astFuncID(fd *ast.FuncDecl) string {
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		if tn := recvTypeName(fd.Recv.List[0].Type); tn != "" {
			return "(" + tn + ")." + fd.Name.Name
		}
	}
	return fd.Name.Name
}

// recvTypeName unwraps *T, T[P] receiver expressions to the type name.
func recvTypeName(expr ast.Expr) string {
	switch t := expr.(type) {
	case *ast.StarExpr:
		return recvTypeName(t.X)
	case *ast.Ident:
		return t.Name
	case *ast.IndexExpr:
		return recvTypeName(t.X)
	case *ast.IndexListExpr:
		return recvTypeName(t.X)
	}
	return ""
}

// sourceAnnotation reports whether the declaration's doc comment carries
// a //lint:source directive.
func sourceAnnotation(fd *ast.FuncDecl, f *Func) (bool, string) {
	if fd.Doc == nil {
		return false, ""
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(c.Text)
		if text == "//lint:source" || strings.HasPrefix(text, "//lint:source ") {
			return true, f.name() + " (annotated //lint:source)"
		}
	}
	return false, ""
}

// Callee statically resolves the callee of call. obj is the resolved
// function or method (nil for function values, interface dynamic
// dispatch with no type info, conversions and builtins); fn is the
// indexed declaration when the callee lives in the loaded program; recv
// is the receiver expression for method calls.
func (e *Engine) Callee(pkg *Pkg, call *ast.CallExpr) (obj *types.Func, fn *Func, recv ast.Expr) {
	if pkg.Info == nil {
		return nil, nil, nil
	}
	switch f := unparen(call.Fun).(type) {
	case *ast.Ident:
		obj, _ = pkg.Info.Uses[f].(*types.Func)
	case *ast.SelectorExpr:
		obj, _ = pkg.Info.Uses[f.Sel].(*types.Func)
		if obj != nil {
			if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
				recv = f.X
			}
		}
	}
	if obj != nil {
		// Interface methods have no body; treat them as opaque rather
		// than resolving to nothing.
		fn = e.funcs[FuncID(obj)]
	}
	return obj, fn, recv
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// paramObjects maps each parameter (and receiver) object of fn to its
// index. It also returns the named-result objects keyed to result
// indices.
func paramObjects(pkg *Pkg, fd *ast.FuncDecl) (params map[types.Object]int, results map[types.Object]int, nResults int) {
	params = map[types.Object]int{}
	results = map[types.Object]int{}
	if pkg.Info == nil {
		return params, results, 0
	}
	def := func(id *ast.Ident) types.Object {
		if id == nil || id.Name == "_" {
			return nil
		}
		return pkg.Info.Defs[id]
	}
	if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		if obj := def(fd.Recv.List[0].Names[0]); obj != nil {
			params[obj] = recvParam
		}
	}
	i := 0
	for _, field := range fd.Type.Params.List {
		if len(field.Names) == 0 {
			i++
			continue
		}
		for _, name := range field.Names {
			if obj := def(name); obj != nil {
				params[obj] = i
			}
			i++
		}
	}
	if fd.Type.Results != nil {
		j := 0
		for _, field := range fd.Type.Results.List {
			if len(field.Names) == 0 {
				j++
				continue
			}
			for _, name := range field.Names {
				if obj := def(name); obj != nil {
					results[obj] = j
				}
				j++
			}
		}
		nResults = j
	}
	return params, results, nResults
}

// rootOf walks an expression to the base identifier carrying its state
// and classifies it: a parameter/receiver index, globalRoot for
// package-level variables, or localRoot (with the object, so callers can
// compare declaration positions against loop extents). ok is false when
// no single base variable exists (function results, literals).
func rootOf(pkg *Pkg, params map[types.Object]int, expr ast.Expr) (root int, obj types.Object, ok bool) {
	for {
		switch x := expr.(type) {
		case *ast.ParenExpr:
			expr = x.X
		case *ast.StarExpr:
			expr = x.X
		case *ast.SelectorExpr:
			// A package-qualified identifier is itself a global.
			if id, isIdent := x.X.(*ast.Ident); isIdent && pkg.Info != nil {
				if _, isPkg := pkg.Info.Uses[id].(*types.PkgName); isPkg {
					if vo, isVar := pkg.Info.Uses[x.Sel].(*types.Var); isVar {
						return globalRoot, vo, true
					}
					return 0, nil, false
				}
			}
			expr = x.X
		case *ast.IndexExpr:
			expr = x.X
		case *ast.SliceExpr:
			expr = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return 0, nil, false
			}
			expr = x.X
		case *ast.Ident:
			if pkg.Info == nil {
				return 0, nil, false
			}
			o := pkg.Info.Uses[x]
			if o == nil {
				o = pkg.Info.Defs[x]
			}
			if o == nil {
				return 0, nil, false
			}
			if idx, isParam := params[o]; isParam {
				return idx, o, true
			}
			if v, isVar := o.(*types.Var); isVar {
				if v.Parent() != nil && v.Parent().Parent() == types.Universe {
					return globalRoot, o, true // package scope
				}
				return localRoot, o, true
			}
			return 0, nil, false
		default:
			return 0, nil, false
		}
	}
}
