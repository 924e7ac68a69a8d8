package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strconv"
)

// Determinism enforces the repository's reproducibility policy inside the
// simulation packages: every run must be a pure function of (workload,
// machine, seed). Two things break that silently:
//
//   - the global math/rand convenience functions (rand.Intn, rand.Float64,
//     rand.Shuffle, ...) draw from a process-wide source that other code
//     and test ordering perturb — schedules stop being replayable;
//   - time.Now / time.Since consulted by scheduling code make decisions
//     depend on the host clock.
//
// Wall-clock *measurement* is legitimate (the paper reports real speedups)
// but must flow through the allowlisted timing wrappers so that the
// boundary between "measures time" and "decides based on time" stays
// auditable.
type Determinism struct {
	// Packages are import-path suffixes the check applies to.
	Packages []string
	// AllowTimeFuncs names functions (or methods, by bare name) that may
	// call time.Now/Since/Until — the sanctioned timing wrappers.
	AllowTimeFuncs map[string]bool
}

// NewDeterminism returns the analyzer with the repository defaults.
func NewDeterminism() *Determinism {
	return &Determinism{
		Packages: []string{
			"internal/core",
			"internal/deque",
			"internal/hypergraph",
			"internal/semimatching",
			"internal/obs",
			// The serving layer legitimately runs on the real clock, but
			// every wall-clock read must flow through serve's single
			// suppressed now() helper so the boundary stays auditable.
			"internal/serve",
		},
		AllowTimeFuncs: map[string]bool{
			"startStopwatch": true, // internal/core stopwatch constructor
			"elapsed":        true, // stopwatch.elapsed
		},
	}
}

// Name implements Analyzer.
func (*Determinism) Name() string { return "determinism" }

// Doc implements Analyzer.
func (*Determinism) Doc() string {
	return "forbid global math/rand and bare wall-clock reads in simulation packages"
}

// AppliesTo implements Analyzer.
func (d *Determinism) AppliesTo(pkgPath string) bool {
	for _, suffix := range d.Packages {
		if hasSuffixPath(pkgPath, suffix) {
			return true
		}
	}
	return false
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

// Run implements Analyzer.
func (d *Determinism) Run(pkg *Package) []Finding {
	var out []Finding
	for _, file := range pkg.Files {
		imports := importAliases(file)
		var stack []string // enclosing named functions, innermost last
		var walk func(n ast.Node) bool
		walk = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				name := ""
				if n.Name != nil {
					name = n.Name.Name
				}
				stack = append(stack, name)
				if n.Body != nil {
					ast.Inspect(n.Body, walk)
				}
				stack = stack[:len(stack)-1]
				return false
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				path, ok := resolvePkg(pkg, imports, sel)
				if !ok {
					return true
				}
				fn := sel.Sel.Name
				switch {
				case (path == "math/rand" || path == "math/rand/v2") && globalRandFuncs[fn]:
					out = append(out, Finding{
						Pos:     pkg.Fset.Position(n.Pos()),
						Check:   d.Name(),
						Message: fmt.Sprintf("global rand.%s draws from the shared process-wide source; plumb a seeded *rand.Rand so runs replay from a seed", fn),
					})
				case path == "time" && wallClockFuncs[fn]:
					if len(stack) > 0 && d.AllowTimeFuncs[stack[len(stack)-1]] {
						return true
					}
					out = append(out, Finding{
						Pos:     pkg.Fset.Position(n.Pos()),
						Check:   d.Name(),
						Message: fmt.Sprintf("bare time.%s in a simulation package; route timing through the allowlisted stopwatch wrapper", fn),
					})
				}
			}
			return true
		}
		ast.Inspect(file, walk)
	}
	return out
}

// importAliases maps local package names to import paths for one file.
func importAliases(file *ast.File) map[string]string {
	m := map[string]string{}
	for _, imp := range file.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		name := path
		if i := lastSlash(path); i >= 0 {
			name = path[i+1:]
		}
		// Version suffixes like math/rand/v2 keep the previous component
		// as the package name.
		if len(name) >= 2 && name[0] == 'v' && isDigits(name[1:]) {
			trimmed := path[:len(path)-len(name)-1]
			if i := lastSlash(trimmed); i >= 0 {
				name = trimmed[i+1:]
			} else {
				name = trimmed
			}
		}
		if imp.Name != nil {
			name = imp.Name.Name
		}
		m[name] = path
	}
	return m
}

func isDigits(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return len(s) > 0
}

func lastSlash(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '/' {
			return i
		}
	}
	return -1
}

// resolvePkg reports the import path of the package a selector's base
// identifier refers to. Type information is authoritative when available
// (it sees through shadowing); the import table is the fallback.
func resolvePkg(pkg *Package, imports map[string]string, sel *ast.SelectorExpr) (string, bool) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	if pkg.Info != nil {
		if obj, ok := pkg.Info.Uses[id]; ok {
			if pn, ok := obj.(*types.PkgName); ok {
				return pn.Imported().Path(), true
			}
			return "", false // a variable or type, not a package
		}
	}
	path, ok := imports[id.Name]
	return path, ok
}
