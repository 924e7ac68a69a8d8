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

// recursiveSrc has a self-recursive function and a mutually recursive
// pair, the call-graph shapes on which IDs must still be stable.
const recursiveSrc = `package p

func descend(n int, acc float64) float64 {
	if n == 0 {
		return acc
	}
	return descend(n-1, acc)
}

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
`

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
