package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"execmodels/internal/lint/dataflow"
)

// ClockTaint keeps wall-clock and global-rand values out of the state
// the byte-identical guarantee covers. The simulation packages may read
// the clock through the stopwatch wrappers, because the paper reports
// real partitioner cost, and nothing syntactic stops such a value from
// flowing out of a wrapper, through any number of helpers, into a
// deterministic output. ClockTaint tracks it: values produced by
// time.Now/Since/Until,
// the global math/rand functions, or any //lint:source-annotated
// function are traced through assignments, returns and calls (via
// function summaries), and reported when they reach
//
//   - a field of a Result struct,
//   - a metric charge on obs.Registry (Count/Add/Set/Observe), or
//   - an obs exporter that takes an io.Writer.
//
// Every finding carries the full source→call-chain→sink path, and is
// reported at the sink, so one //lint:ignore at the sink documents the
// deliberate exception (core.Result.ScheduleCost — the one quantity
// defined to be wall-clock real time, which never enters the registry).
type ClockTaint struct {
	// Packages are import-path suffixes findings are reported in.
	// Summaries are still computed over the whole program.
	Packages []string
	// ResultTypes are struct type names treated as Result sinks.
	ResultTypes map[string]bool
}

// NewClockTaint returns the analyzer with the repository defaults.
func NewClockTaint() *ClockTaint {
	return &ClockTaint{
		Packages:    simPackages(),
		ResultTypes: map[string]bool{"Result": true},
	}
}

// Name implements Analyzer.
func (*ClockTaint) Name() string { return "clocktaint" }

// Doc implements Analyzer.
func (*ClockTaint) Doc() string {
	return "trace wall-clock/global-rand values interprocedurally; they must not reach Result fields, registry charges or exporters"
}

// AppliesTo implements Analyzer.
func (c *ClockTaint) AppliesTo(pkgPath string) bool {
	for _, suffix := range c.Packages {
		if hasSuffixPath(pkgPath, suffix) {
			return true
		}
	}
	return false
}

// Run implements Analyzer on a single package (fixture tests).
func (c *ClockTaint) Run(pkg *Package) []Finding {
	return c.RunProgram([]*Package{pkg})
}

// RunProgram implements ProgramAnalyzer.
func (c *ClockTaint) RunProgram(pkgs []*Package) []Finding {
	eng := dataflow.New(dataflowPkgs(pkgs))
	spec := dataflow.TaintSpec{
		Source:    c.source,
		SinkStore: c.sinkStore,
		SinkArg:   c.sinkArg,
		ReportIn:  c.AppliesTo,
	}
	var out []Finding
	for _, tf := range eng.Taint(spec) {
		out = append(out, Finding{
			Pos:     tf.Pos,
			Check:   c.Name(),
			Message: fmt.Sprintf("nondeterministic value reaches %s; flow: %s", tf.Sink, tf.Path),
			Path:    tf.Path,
		})
	}
	return out
}

// globalRandFuncs are the math/rand (and math/rand/v2) package-level
// functions that consume the shared global source. Constructors like
// rand.New and rand.NewSource are fine — they are how seeded streams are
// built.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "IntN": true, "Int31": true, "Int31n": true,
	"Int32": true, "Int32N": true, "Int63": true, "Int63n": true,
	"Int64": true, "Int64N": true, "Uint": true, "UintN": true,
	"Uint32": true, "Uint32N": true, "Uint64": true, "Uint64N": true,
	"Float32": true, "Float64": true, "NormFloat64": true,
	"ExpFloat64": true, "Perm": true, "Shuffle": true, "Seed": true,
	"Read": true, "N": true,
}

var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// source classifies intrinsic taint sources: the wall clock and the
// global math/rand convenience functions. Methods on a seeded *rand.Rand
// are deterministic and deliberately not sources.
func (c *ClockTaint) source(fn *types.Func) (string, bool) {
	pkg := fn.Pkg()
	if pkg == nil {
		return "", false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return "", false
	}
	switch pkg.Path() {
	case "time":
		if wallClockFuncs[fn.Name()] {
			return "time." + fn.Name(), true
		}
	case "math/rand", "math/rand/v2":
		if globalRandFuncs[fn.Name()] {
			return "global rand." + fn.Name(), true
		}
	}
	return "", false
}

// sinkStore classifies assignment targets: any field of a Result-named
// struct type.
func (c *ClockTaint) sinkStore(pkg *dataflow.Pkg, lhs ast.Expr) (string, bool) {
	sel, ok := lhs.(*ast.SelectorExpr)
	if !ok || pkg.Info == nil {
		return "", false
	}
	tv, ok := pkg.Info.Types[sel.X]
	if !ok || tv.Type == nil {
		return "", false
	}
	t := tv.Type
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || !c.ResultTypes[named.Obj().Name()] {
		return "", false
	}
	short := ""
	if named.Obj().Pkg() != nil {
		short = shortPkg(named.Obj().Pkg().Path()) + "."
	}
	return short + named.Obj().Name() + " field " + sel.Sel.Name, true
}

// sinkArg classifies call arguments: anything passed to a registry
// charge, and anything passed to an obs exporter (a function in
// internal/obs taking an io.Writer).
func (c *ClockTaint) sinkArg(_ *dataflow.Pkg, _ *ast.CallExpr, fn *types.Func, _ int) (string, bool) {
	if isRegistryCharge(fn) {
		return "obs.Registry." + fn.Name(), true
	}
	if fn.Pkg() != nil && hasSuffixPath(fn.Pkg().Path(), "internal/obs") {
		if _, ok := dataflow.WriterParam(fn); ok {
			return "obs exporter " + fn.Name(), true
		}
	}
	return "", false
}

// shortPkg returns the last path element of an import path.
func shortPkg(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
