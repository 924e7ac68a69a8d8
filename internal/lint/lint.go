// Package lint implements execlint, the repository's static-analysis
// suite. Each of its seven analyzers is the only gate that catches its
// bug class: go vet, the -race runs, the AllocsPerRun gates and the
// determinism and golden tests catch the rest (DESIGN.md keeps the
// seeded-bug matrix that decided which analyzers stay).
//
// Two checks are syntactic:
//
//   - guardedby: struct fields annotated "// guarded by <mutex>" must only
//     be touched by methods that actually lock that mutex;
//   - floateq: energies and matrix elements in the chemistry and linear
//     algebra kernels must be compared with tolerances, never ==/!=.
//
// Five are interprocedural, built on the function-summary dataflow
// engine in the dataflow sub-package:
//
//   - clocktaint: wall-clock / global-rand values traced through helper
//     calls must not reach Result fields, obs registry charges or
//     exporters;
//   - maporder: a range over a map whose body (directly or via calls)
//     appends to an outliving slice, writes an io.Writer, charges the
//     registry, or accumulates a float, makes map iteration order
//     observable and breaks byte-identical output;
//   - lockset: references to "// guarded by" fields must not escape
//     their critical section (return, global store, channel send,
//     goroutine capture);
//   - goleak: every go statement in the executor and serving packages
//     must have a statically visible completion edge (wg.Add/Done
//     pairing, channel close/send/receive, or context cancellation) so
//     workers cannot leak past wg.Wait;
//   - ctxcancel: blocking operations reachable from the serving layer's
//     HTTP handlers must select on ctx.Done() or carry a deadline; bare
//     sends/receives and time.Sleep on request paths are findings.
//
// Everything is built on the standard library only (go/ast, go/parser,
// go/token, go/types); the module stays dependency-free.
//
// False positives are suppressed per line with
//
//	//lint:ignore <check> <reason>
//
// on the offending line or the line above. The reason is mandatory, and
// RunWithStale reports directives that no longer suppress anything.
package lint

import (
	"fmt"
	"go/token"
	"sort"

	"execmodels/internal/lint/dataflow"
)

// A Finding is one diagnostic produced by an analyzer.
type Finding struct {
	Pos     token.Position
	Check   string // analyzer name, e.g. "floateq"
	Message string

	// Path is the rendered dataflow chain (source → call chain → sink)
	// for findings from the interprocedural analyzers; nil for the
	// syntactic checks. The driver and -json output surface it so a
	// multi-hop flow can be triaged without re-deriving the call chain.
	Path dataflow.Path
}

// String renders the finding in the canonical file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Check, f.Message)
}

// An Analyzer is one named check over a loaded package.
type Analyzer interface {
	// Name is the short identifier used in reports and //lint:ignore
	// directives.
	Name() string
	// Doc is a one-line description of what the check enforces.
	Doc() string
	// AppliesTo reports whether the analyzer should run on the package
	// with the given import path. Fixture tests bypass this and call Run
	// directly.
	AppliesTo(pkgPath string) bool
	// Run analyzes one package and returns its findings.
	Run(pkg *Package) []Finding
}

// All returns the full analyzer suite in stable order.
func All() []Analyzer {
	return []Analyzer{
		NewGuardedBy(),
		NewFloatEq(),
		NewClockTaint(),
		NewMapOrder(),
		NewLockset(),
		NewGoleak(),
		NewCtxCancel(),
	}
}

// Run applies the given analyzers to the given packages, honoring
// AppliesTo and //lint:ignore suppressions, and returns the surviving
// findings sorted by position. Per-package analyzers run package by
// package; ProgramAnalyzers run once over the whole package set so their
// call-graph summaries see helpers in other packages.
func Run(pkgs []*Package, analyzers []Analyzer) []Finding {
	findings, _ := run(pkgs, analyzers)
	return findings
}

// RunWithStale is Run plus suppression hygiene: the second return lists
// a "staleignore" finding for every //lint:ignore directive naming one
// of the selected analyzers that suppressed nothing this run — dead
// suppressions hide the next real finding on their line.
func RunWithStale(pkgs []*Package, analyzers []Analyzer) (findings, stale []Finding) {
	findings, directives := run(pkgs, analyzers)
	selected := map[string]bool{}
	for _, a := range analyzers {
		selected[a.Name()] = true
	}
	for _, d := range directives {
		if selected[d.check] && !*d.used {
			stale = append(stale, Finding{
				Pos:     d.pos,
				Check:   "staleignore",
				Message: fmt.Sprintf("//lint:ignore %s suppresses nothing — remove the directive or restate why it is needed", d.check),
			})
		}
	}
	SortFindings(stale)
	return findings, stale
}

func run(pkgs []*Package, analyzers []Analyzer) ([]Finding, []*ignoreDirective) {
	var out []Finding
	var directives []*ignoreDirective
	ignores := ignoreIndex{}
	for _, pkg := range pkgs {
		idx, all, malformed := collectIgnores(pkg)
		out = append(out, malformed...)
		directives = append(directives, all...)
		for file, byLine := range idx {
			ignores[file] = byLine
		}
	}
	keep := func(findings []Finding) {
		for _, f := range findings {
			if !ignores.suppresses(f) {
				out = append(out, f)
			}
		}
	}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if _, program := a.(ProgramAnalyzer); program {
				continue
			}
			if !a.AppliesTo(pkg.Path) {
				continue
			}
			keep(a.Run(pkg))
		}
	}
	for _, a := range analyzers {
		if pa, ok := a.(ProgramAnalyzer); ok {
			keep(pa.RunProgram(pkgs))
		}
	}
	SortFindings(out)
	return out, directives
}

// SortFindings orders findings by position, then check, then message —
// the canonical deterministic report order.
func SortFindings(out []Finding) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if out[i].Check != out[j].Check {
			return out[i].Check < out[j].Check
		}
		return out[i].Message < out[j].Message
	})
}

// hasSuffixPath reports whether pkgPath equals suffix or ends with
// "/"+suffix — the matching rule analyzers use to scope themselves to
// repository packages regardless of the module prefix.
func hasSuffixPath(pkgPath, suffix string) bool {
	if pkgPath == suffix {
		return true
	}
	n := len(pkgPath) - len(suffix)
	return n > 0 && pkgPath[n-1] == '/' && pkgPath[n:] == suffix
}
