package lint

import (
	"go/types"

	"execmodels/internal/lint/dataflow"
)

// A ProgramAnalyzer is an analyzer that needs the whole loaded program at
// once — the interprocedural checks built on internal/lint/dataflow
// compute call-graph-wide function summaries, so running them one package
// at a time would miss effects reached through helpers in another
// package. The driver calls RunProgram exactly once with every loaded
// package; Run (from Analyzer) remains usable on a single package, which
// is how fixture tests exercise these analyzers.
type ProgramAnalyzer interface {
	Analyzer
	// RunProgram analyzes all packages together. Implementations scope
	// their findings with AppliesTo themselves; the driver only applies
	// //lint:ignore suppressions.
	RunProgram(pkgs []*Package) []Finding
}

// dataflowPkgs converts the loader's package representation into the
// engine's. The slices are parallel: dataflowPkgs(pkgs)[i] corresponds to
// pkgs[i].
func dataflowPkgs(pkgs []*Package) []*dataflow.Pkg {
	out := make([]*dataflow.Pkg, len(pkgs))
	for i, p := range pkgs {
		out[i] = &dataflow.Pkg{Path: p.Path, Fset: p.Fset, Files: p.Files, Info: p.Info}
	}
	return out
}

// chargeMethods are the obs.Registry methods that mutate metric state.
// Their call order is observable in exported output (gauge adds are
// float additions, which do not associate).
var chargeMethods = map[string]bool{
	"Count": true, "Add": true, "Set": true, "Observe": true,
}

// isRegistryCharge reports whether fn is a metric-charging method of
// obs.Registry.
func isRegistryCharge(fn *types.Func) bool {
	if fn == nil || !chargeMethods[fn.Name()] {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Registry" {
		return false
	}
	return named.Obj().Pkg() != nil && hasSuffixPath(named.Obj().Pkg().Path(), "internal/obs")
}
