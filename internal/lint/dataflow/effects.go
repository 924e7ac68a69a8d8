package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// EffectKind classifies an order-sensitive effect: something whose
// observable outcome depends on the order the effect sites execute in —
// exactly what iterating a Go map randomizes.
type EffectKind string

const (
	// EffectAppend: appends to a slice the caller can see (receiver
	// field, pointed-to parameter, package variable).
	EffectAppend EffectKind = "append"
	// EffectWrite: writes an io.Writer-shaped destination.
	EffectWrite EffectKind = "write"
	// EffectCharge: charges the metric registry (per the configured
	// matcher). Gauge charges are float adds, and float addition does
	// not associate — charge order changes the exported bytes.
	EffectCharge EffectKind = "charge"
)

// Effect is one order-sensitive effect of a function, as seen by its
// callers.
type Effect struct {
	Kind EffectKind
	Desc string
	Pos  token.Position
	// Root is the parameter index whose state the effect mutates
	// (recvParam for the receiver, globalRoot for package state).
	// Summary-level effects never have local roots — a function
	// mutating only its own locals is order-safe to call.
	Root int
	Via  Path // call chain from the summarized function to the effect
}

// EffectSpec configures effect detection.
type EffectSpec struct {
	// IsCharge classifies a resolved callee as a metric-registry charge
	// (e.g. obs.Registry.Add/Set/Count/Observe).
	IsCharge func(fn *types.Func) bool
}

// Effects computes order-effect summaries for every indexed function by
// bottom-up fixpoint: a function has an effect if its body performs one
// directly on caller-visible state, or calls a function whose effect is
// rooted at an argument that is itself caller-visible.
func (e *Engine) Effects(spec EffectSpec) map[string][]Effect {
	sums := map[string][]Effect{}
	for iter := 0; iter < 64; iter++ {
		changed := false
		for _, id := range e.ids {
			f := e.funcs[id]
			next := e.analyzeEffects(f, spec, sums)
			if len(next) > len(sums[id]) {
				sums[id] = next
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return sums
}

// effectKey dedups effects within one summary.
func effectKey(ef Effect) string {
	return string(ef.Kind) + "|" + ef.Pos.String() + "|" + ef.Desc
}

// analyzeEffects collects one function's caller-visible effects given
// current callee summaries.
func (e *Engine) analyzeEffects(f *Func, spec EffectSpec, sums map[string][]Effect) []Effect {
	params := ParamsOf(f.Pkg, f.Decl)
	var out []Effect
	seen := map[string]bool{}
	add := func(ef Effect) {
		k := effectKey(ef)
		if !seen[k] {
			seen[k] = true
			out = append(out, ef)
		}
	}
	for _, ef := range e.directEffects(f.Pkg, params, f.Decl.Body, spec, sums) {
		if ef.Root != localRoot {
			add(ef)
		}
	}
	sort.Slice(out, func(i, j int) bool { return effectKey(out[i]) < effectKey(out[j]) })
	return out
}

// DirectEffects returns the order-sensitive effects of one statement
// subtree, including those reached through calls into summarized
// functions. Effects rooted at local variables are included with their
// declaring object recorded via declPos — the maporder analyzer decides
// whether a local outlives the loop. summaries may be nil for purely
// syntactic use.
func (e *Engine) DirectEffects(pkg *Pkg, fd *ast.FuncDecl, body ast.Node, spec EffectSpec, summaries map[string][]Effect) []SiteEffect {
	params := ParamsOf(pkg, fd)
	var out []SiteEffect
	e.directEffectsInto(pkg, params, body, spec, summaries, &out)
	return out
}

// SiteEffect is an effect observed at a concrete site inside a body,
// with the variable object rooting it (nil for globals).
type SiteEffect struct {
	Effect
	RootObj types.Object
}

func (e *Engine) directEffects(pkg *Pkg, params map[types.Object]int, body ast.Node, spec EffectSpec, sums map[string][]Effect) []Effect {
	var sites []SiteEffect
	e.directEffectsInto(pkg, params, body, spec, sums, &sites)
	out := make([]Effect, 0, len(sites))
	for _, s := range sites {
		out = append(out, s.Effect)
	}
	return out
}

func (e *Engine) directEffectsInto(pkg *Pkg, params map[types.Object]int, body ast.Node, spec EffectSpec, sums map[string][]Effect, out *[]SiteEffect) {
	if body == nil {
		return
	}
	pos := func(n ast.Node) token.Position { return pkg.Fset.Position(n.Pos()) }
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			// x = append(x, ...) and other append-shaped stores.
			for i, rhs := range s.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !isBuiltinAppend(pkg, call) || i >= len(s.Lhs) {
					continue
				}
				root, obj, ok := rootOf(pkg, params, s.Lhs[i])
				if !ok {
					continue
				}
				*out = append(*out, SiteEffect{
					Effect:  Effect{Kind: EffectAppend, Desc: "append to " + exprString(s.Lhs[i]), Pos: pos(call), Root: root},
					RootObj: obj,
				})
			}
		case *ast.CallExpr:
			e.callEffects(pkg, params, s, spec, sums, out)
		}
		return true
	})
}

// callEffects classifies one call: a direct write/charge, or a call into
// a summarized function with effects.
func (e *Engine) callEffects(pkg *Pkg, params map[types.Object]int, call *ast.CallExpr, spec EffectSpec, sums map[string][]Effect, out *[]SiteEffect) {
	obj, callee, recv := e.Callee(pkg, call)
	pos := pkg.Fset.Position(call.Pos())

	rootAt := func(expr ast.Expr) (int, types.Object, bool) {
		return rootOf(pkg, params, expr)
	}

	if obj != nil {
		// Registry charge.
		if spec.IsCharge != nil && spec.IsCharge(obj) {
			root, rObj := globalRoot, types.Object(nil)
			if recv != nil {
				if r, o, ok := rootAt(recv); ok {
					root, rObj = r, o
				}
			}
			*out = append(*out, SiteEffect{
				Effect:  Effect{Kind: EffectCharge, Desc: callDesc(call) + " charges the metric registry", Pos: pos, Root: root},
				RootObj: rObj,
			})
			return
		}
		// Writer-shaped destinations: an io.Writer-like argument, a
		// Write*-named method, or the fmt print family (implicit
		// os.Stdout).
		if wIdx, ok := writerParam(obj); ok {
			args := call.Args
			if wIdx < len(args) {
				root, rObj, okRoot := rootAt(args[wIdx])
				if !okRoot {
					root, rObj = globalRoot, nil
				}
				*out = append(*out, SiteEffect{
					Effect:  Effect{Kind: EffectWrite, Desc: callDesc(call) + " writes " + exprString(args[wIdx]), Pos: pos, Root: root},
					RootObj: rObj,
				})
				return
			}
		}
		if recv != nil && isWriterMethod(obj) {
			root, rObj, okRoot := rootAt(recv)
			if !okRoot {
				root, rObj = globalRoot, nil
			}
			*out = append(*out, SiteEffect{
				Effect:  Effect{Kind: EffectWrite, Desc: callDesc(call) + " writes " + exprString(recv), Pos: pos, Root: root},
				RootObj: rObj,
			})
			return
		}
		if isFmtPrint(obj) {
			*out = append(*out, SiteEffect{
				Effect: Effect{Kind: EffectWrite, Desc: callDesc(call) + " writes os.Stdout", Pos: pos, Root: globalRoot},
			})
			return
		}
	}

	// Effects through a summarized callee: re-root each effect at the
	// corresponding argument.
	if callee == nil || sums == nil {
		return
	}
	for _, ef := range sums[callee.ID] {
		var root int
		var rObj types.Object
		switch ef.Root {
		case globalRoot:
			root, rObj = globalRoot, nil
		case recvParam:
			if recv == nil {
				continue
			}
			r, o, ok := rootAt(recv)
			if !ok {
				continue
			}
			root, rObj = r, o
		default:
			if ef.Root < 0 || ef.Root >= len(call.Args) {
				continue
			}
			r, o, ok := rootAt(call.Args[ef.Root])
			if !ok {
				continue
			}
			root, rObj = r, o
		}
		via := extend(Path{{pos, "calls " + callee.name()}}, Step{ef.Pos, ef.Desc})
		if len(ef.Via) > 0 {
			via = Path{{pos, "calls " + callee.name()}}
			for _, s := range ef.Via {
				via = extend(via, s)
			}
		}
		*out = append(*out, SiteEffect{
			Effect:  Effect{Kind: ef.Kind, Desc: ef.Desc, Pos: ef.Pos, Root: root, Via: via},
			RootObj: rObj,
		})
	}
}

// isBuiltinAppend reports whether the call is the append builtin.
func isBuiltinAppend(pkg *Pkg, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	if pkg.Info != nil {
		if obj := pkg.Info.Uses[id]; obj != nil {
			_, isBuiltin := obj.(*types.Builtin)
			return isBuiltin
		}
	}
	return true
}

// writerParam returns the index of the first parameter whose type is an
// interface with a Write method (io.Writer and friends).
func writerParam(fn *types.Func) (int, bool) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return 0, false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		t := sig.Params().At(i).Type()
		if s, isSlice := t.(*types.Slice); isSlice && sig.Variadic() && i == sig.Params().Len()-1 {
			t = s.Elem()
		}
		iface, isIface := t.Underlying().(*types.Interface)
		if !isIface {
			continue
		}
		for m := 0; m < iface.NumMethods(); m++ {
			if iface.Method(m).Name() == "Write" {
				return i, true
			}
		}
	}
	return 0, false
}

// isWriterMethod reports whether fn is a Write-family method on a
// concrete writer (bytes.Buffer, strings.Builder, csv.Writer, ...).
func isWriterMethod(fn *types.Func) bool {
	switch fn.Name() {
	case "Write", "WriteString", "WriteByte", "WriteRune":
	default:
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// isFmtPrint reports fmt.Print/Printf/Println (implicit stdout).
func isFmtPrint(fn *types.Func) bool {
	if fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
		return false
	}
	switch fn.Name() {
	case "Print", "Printf", "Println":
		return true
	}
	return false
}

// exprString renders a small expression for diagnostics.
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
	case *ast.ParenExpr:
		return exprString(x.X)
	case *ast.UnaryExpr:
		return x.Op.String() + exprString(x.X)
	case *ast.CallExpr:
		return exprString(x.Fun) + "(...)"
	}
	return "expr"
}

// callDesc renders a call's callee for diagnostics.
func callDesc(call *ast.CallExpr) string {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		if id, ok := f.X.(*ast.Ident); ok {
			return id.Name + "." + f.Sel.Name
		}
		return f.Sel.Name
	}
	return "call"
}

// IsLocalRoot reports whether a root index means function-local state.
func IsLocalRoot(root int) bool { return root == localRoot }
