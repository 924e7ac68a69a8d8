package dataflow

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// loadSrc type-checks one synthetic import-free source file into a Pkg.
func loadSrc(t *testing.T, src string) *Pkg {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "fix.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{}
	if _, err := conf.Check("p", fset, []*ast.File{file}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return &Pkg{Path: "p", Fset: fset, Files: []*ast.File{file}, Info: info}
}

const recursiveSrc = `package p

//lint:source synthetic entropy
func entropy() float64 { return 1 }

func passthru(x float64) float64 { return x }

func launder(x float64) float64 { return passthru(x) }

// descend recurses; its second parameter flows to its result both
// directly (base case) and through the recursive call.
func descend(n int, acc float64) float64 {
	if n == 0 {
		return acc
	}
	return descend(n-1, acc)
}

// even/odd are mutually recursive with no parameter-to-result flow —
// every return path ends in a constant.
func even(n int) bool {
	if n == 0 {
		return true
	}
	return odd(n - 1)
}

func odd(n int) bool {
	if n == 0 {
		return false
	}
	return even(n - 1)
}

type Res struct{ V float64 }

func store(r *Res) {
	r.V = descend(3, launder(entropy()))
}

func storeClean(r *Res) {
	r.V = descend(3, 1.5)
}
`

func TestParamFlowsOnRecursion(t *testing.T) {
	eng := New([]*Pkg{loadSrc(t, recursiveSrc)})
	flows := eng.ParamFlows()

	if !flows["p.descend"][1][0] {
		t.Errorf("descend: acc (param 1) should flow to result 0; got %v", flows["p.descend"])
	}
	if len(flows["p.descend"][0]) != 0 {
		t.Errorf("descend: n (param 0) should not flow to the result; got %v", flows["p.descend"][0])
	}
	if !flows["p.launder"][0][0] {
		t.Errorf("launder: param 0 should flow to result 0 through passthru; got %v", flows["p.launder"])
	}
	// The mutually recursive pair must terminate with empty flows: every
	// return path bottoms out in a constant.
	for _, id := range []string{"p.even", "p.odd"} {
		for p, rs := range flows[id] {
			if len(rs) > 0 {
				t.Errorf("%s: unexpected flow from param %d: %v", id, p, rs)
			}
		}
	}
}

func TestTaintThroughRecursiveChain(t *testing.T) {
	eng := New([]*Pkg{loadSrc(t, recursiveSrc)})
	spec := TaintSpec{
		SinkStore: func(pkg *Pkg, lhs ast.Expr) (string, bool) {
			sel, ok := lhs.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "V" {
				return "", false
			}
			return "Res.V", true
		},
	}
	findings := eng.Taint(spec)
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1 (store, not storeClean): %+v", len(findings), findings)
	}
	f := findings[0]
	if f.Sink != "Res.V" {
		t.Errorf("sink = %q, want Res.V", f.Sink)
	}
	rendered := f.Path.String()
	for _, sub := range []string{"//lint:source", "p.launder", "p.descend", "stored to Res.V"} {
		if !strings.Contains(rendered, sub) {
			t.Errorf("path missing %q: %s", sub, rendered)
		}
	}
	// Source first, sink last.
	if !strings.HasPrefix(f.Path[0].Desc, "p.entropy") {
		t.Errorf("path should start at the source, got %q", f.Path[0].Desc)
	}
	if got := f.Path[len(f.Path)-1].Desc; got != "stored to Res.V" {
		t.Errorf("path should end at the sink, got %q", got)
	}
}

func TestTaintDeterministicAcrossRuns(t *testing.T) {
	render := func() string {
		eng := New([]*Pkg{loadSrc(t, recursiveSrc)})
		spec := TaintSpec{
			SinkStore: func(pkg *Pkg, lhs ast.Expr) (string, bool) {
				if sel, ok := lhs.(*ast.SelectorExpr); ok && sel.Sel.Name == "V" {
					return "Res.V", true
				}
				return "", false
			},
		}
		var b strings.Builder
		for _, f := range eng.Taint(spec) {
			b.WriteString(f.Pos.String() + " " + f.Sink + " " + f.Path.String() + "\n")
		}
		return b.String()
	}
	first := render()
	for i := 0; i < 5; i++ {
		if got := render(); got != first {
			t.Fatalf("run %d differs:\n%s\nvs\n%s", i, got, first)
		}
	}
}

const effectSrc = `package p

func sink(out *[]string, s string) {
	*out = append(*out, s)
}

func local(s string) {
	var tmp []string
	tmp = append(tmp, s)
	_ = tmp
}

var global []string

func leak(s string) {
	global = append(global, s)
}

func relay(out *[]string, s string) {
	sink(out, s)
}
`

func TestEffectSummaries(t *testing.T) {
	eng := New([]*Pkg{loadSrc(t, effectSrc)})
	sums := eng.Effects(EffectSpec{})

	find := func(id string, kind EffectKind) []Effect {
		var out []Effect
		for _, ef := range sums[id] {
			if ef.Kind == kind {
				out = append(out, ef)
			}
		}
		return out
	}

	if efs := find("p.sink", EffectAppend); len(efs) != 1 || efs[0].Root != 0 {
		t.Errorf("sink: want one append rooted at param 0, got %+v", sums["p.sink"])
	}
	if efs := sums["p.local"]; len(efs) != 0 {
		t.Errorf("local: purely local append must not appear in the summary, got %+v", efs)
	}
	if efs := find("p.leak", EffectAppend); len(efs) != 1 || efs[0].Root != globalRoot {
		t.Errorf("leak: want one append rooted at the global, got %+v", sums["p.leak"])
	}
	// relay's effect is inherited from sink and re-rooted at relay's own
	// out parameter.
	if efs := find("p.relay", EffectAppend); len(efs) != 1 || efs[0].Root != 0 {
		t.Errorf("relay: want sink's append re-rooted at param 0, got %+v", sums["p.relay"])
	}
}

func TestPathExtendCap(t *testing.T) {
	var p Path
	for i := 0; i < 3*maxPathSteps; i++ {
		p = extend(p, Step{Desc: "hop"})
	}
	if len(p) > maxPathSteps+1 {
		t.Errorf("path grew to %d steps, cap is %d", len(p), maxPathSteps)
	}
	if !strings.Contains(p.String(), "hop") {
		t.Errorf("rendering lost content: %s", p.String())
	}
}

func TestFuncIDStability(t *testing.T) {
	// Two independent type-checks of the same source must yield the same
	// IDs — the loader type-checks packages twice (import vs analyzed),
	// so object identity is unreliable and the engine keys summaries by
	// symbolic ID instead.
	a := New([]*Pkg{loadSrc(t, recursiveSrc)})
	b := New([]*Pkg{loadSrc(t, recursiveSrc)})
	if len(a.funcs) != len(b.funcs) || len(a.funcs) == 0 {
		t.Fatalf("func counts differ: %d vs %d", len(a.funcs), len(b.funcs))
	}
	for id := range a.funcs {
		if _, ok := b.funcs[id]; !ok {
			t.Errorf("ID %q missing from second engine", id)
		}
	}
}

const completionSrc = `package p

// spinA and spinB are mutually recursive: the close propagates through
// the cycle, and the summary must converge instead of growing a longer
// re-rooted entry every fixpoint round.
func spinA(ch chan int, n int) {
	if n == 0 {
		close(ch)
		return
	}
	spinB(ch, n-1)
}

func spinB(ch chan int, n int) {
	spinA(ch, n)
}

// selfDone recurses directly while sending.
func selfDone(out chan int, n int) {
	if n > 0 {
		out <- n
		selfDone(out, n-1)
	}
}
`

func TestCompletionsRecursionTerminates(t *testing.T) {
	eng := New([]*Pkg{loadSrc(t, completionSrc)})
	sums := eng.Completions() // must not hit the iteration cap or grow unboundedly
	for _, id := range []string{"p.spinA", "p.spinB"} {
		comps := sums[id]
		if len(comps) != 1 {
			t.Fatalf("%s: %d completion entries, want 1 (the propagated close): %v", id, len(comps), comps)
		}
		if comps[0].Kind != CompleteClose {
			t.Errorf("%s: kind = %q, want %q", id, comps[0].Kind, CompleteClose)
		}
		if comps[0].Root != 0 {
			t.Errorf("%s: root = %d, want parameter 0", id, comps[0].Root)
		}
	}
	if got := sums["p.selfDone"]; len(got) != 1 || got[0].Kind != CompleteSend {
		t.Errorf("p.selfDone: %v, want a single send entry", got)
	}
}
