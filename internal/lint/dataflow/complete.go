package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// CompletionKind classifies a goroutine-completion edge: an operation
// that lets the rest of the program observe (or force) the goroutine's
// termination.
type CompletionKind string

const (
	// CompleteDone: sync.WaitGroup.Done.
	CompleteDone CompletionKind = "wg.Done"
	// CompleteClose: close(ch).
	CompleteClose CompletionKind = "close"
	// CompleteSend: a channel send.
	CompleteSend CompletionKind = "send"
	// CompleteRecv: a channel receive, including range-over-channel and
	// <-ctx.Done() — the goroutine's loop is bounded by someone closing
	// or draining the channel.
	CompleteRecv CompletionKind = "recv"
)

// Completion is one completion edge a function performs, as seen by its
// callers. Root is the parameter index carrying the WaitGroup/channel
// (recvParam, globalRoot, or localRoot when the function completes
// through its own state).
type Completion struct {
	Kind CompletionKind
	Desc string
	Pos  token.Position
	Root int
}

// SiteCompletion is a completion edge observed inside a concrete body,
// with the variable object rooting it (nil when the root is not a
// single variable).
type SiteCompletion struct {
	Completion
	RootObj types.Object
}

// Completions computes completion summaries for every indexed function
// by bottom-up fixpoint, so `go worker(&wg)` and a wg.Done three helpers
// deep both count.
func (e *Engine) Completions() map[string][]Completion {
	sums := map[string][]Completion{}
	for iter := 0; iter < 64; iter++ {
		changed := false
		for _, id := range e.ids {
			f := e.funcs[id]
			params := ParamsOf(f.Pkg, f.Decl)
			var next []Completion
			seen := map[string]bool{}
			for _, sc := range e.BodyCompletions(f.Pkg, params, f.Decl.Body, sums) {
				k := string(sc.Kind) + "|" + sc.Pos.String() + "|" + sc.Desc
				if !seen[k] {
					seen[k] = true
					next = append(next, sc.Completion)
				}
			}
			sort.Slice(next, func(i, j int) bool {
				if next[i].Pos.Offset != next[j].Pos.Offset {
					return next[i].Pos.Offset < next[j].Pos.Offset
				}
				return next[i].Desc < next[j].Desc
			})
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

// BodyCompletions returns the completion edges of one statement subtree,
// including those reached through calls into summarized functions.
func (e *Engine) BodyCompletions(pkg *Pkg, params map[types.Object]int, body ast.Node, sums map[string][]Completion) []SiteCompletion {
	var out []SiteCompletion
	if body == nil {
		return nil
	}
	add := func(at token.Position, kind CompletionKind, desc string, rootExpr ast.Expr) {
		root, obj := localRoot, types.Object(nil)
		if rootExpr != nil {
			if r, o, ok := rootOf(pkg, params, rootExpr); ok {
				root, obj = r, o
			}
		}
		out = append(out, SiteCompletion{
			Completion: Completion{Kind: kind, Desc: desc, Pos: at, Root: root},
			RootObj:    obj,
		})
	}
	pos := func(n ast.Node) token.Position { return pkg.Fset.Position(n.Pos()) }
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SendStmt:
			add(pos(x), CompleteSend, "sends on "+exprString(x.Chan), x.Chan)
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				add(pos(x), CompleteRecv, "receives from "+exprString(x.X), x.X)
			}
		case *ast.RangeStmt:
			if t := typeOf(pkg, x.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					add(pos(x), CompleteRecv, "ranges over channel "+exprString(x.X), x.X)
				}
			}
		case *ast.CallExpr:
			e.callCompletions(pkg, params, x, sums, add)
		}
		return true
	})
	return out
}

// callCompletions classifies one call: close(ch), wg.Done(), or a call
// into a summarized function whose edges re-root at the arguments.
func (e *Engine) callCompletions(pkg *Pkg, params map[types.Object]int, call *ast.CallExpr, sums map[string][]Completion, add func(token.Position, CompletionKind, string, ast.Expr)) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "close" && len(call.Args) == 1 {
		if obj := pkg.Info.Uses[id]; obj != nil {
			if _, isBuiltin := obj.(*types.Builtin); isBuiltin {
				add(pkg.Fset.Position(call.Pos()), CompleteClose, "closes "+exprString(call.Args[0]), call.Args[0])
				return
			}
		}
	}
	obj, callee, recv := e.Callee(pkg, call)
	if obj != nil && isWaitGroupDone(obj) {
		add(pkg.Fset.Position(call.Pos()), CompleteDone, exprString(recv)+".Done()", recv)
		return
	}
	if callee == nil || sums == nil {
		return
	}
	// Propagated edges keep the original site's Pos and Desc so the
	// fixpoint rederives identical facts each round (recursion would
	// otherwise grow summaries without bound); only the root is
	// re-resolved at this call's arguments.
	for _, c := range sums[callee.ID] {
		var rootExpr ast.Expr
		switch c.Root {
		case recvParam:
			rootExpr = recv
		case globalRoot, localRoot:
			rootExpr = nil
		default:
			if c.Root >= 0 && c.Root < len(call.Args) {
				rootExpr = call.Args[c.Root]
			}
		}
		add(c.Pos, c.Kind, c.Desc, rootExpr)
	}
}

// isWaitGroupDone reports sync.WaitGroup.Done.
func isWaitGroupDone(fn *types.Func) bool {
	return fn.Name() == "Done" && isWaitGroupMethod(fn)
}

// IsWaitGroupAdd reports sync.WaitGroup.Add — the analyzer uses it to
// pair Done edges with a dominating Add.
func IsWaitGroupAdd(fn *types.Func) bool {
	return fn.Name() == "Add" && isWaitGroupMethod(fn)
}

func isWaitGroupMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "WaitGroup" {
		return false
	}
	return named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync"
}

// typeOf returns the type of an expression, or nil without type info.
func typeOf(pkg *Pkg, e ast.Expr) types.Type {
	if pkg.Info == nil {
		return nil
	}
	if tv, ok := pkg.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}
