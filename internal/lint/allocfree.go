package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"

	"execmodels/internal/lint/dataflow"
)

// AllocFree proves functions annotated //hotpath:allocfree free of heap
// allocation: every annotated function is a root, the static call graph
// is traversed from it, and every reachable allocation site — or call
// the engine cannot see through — is reported with the full
// root→call-chain→site path. Deliberate cold-start allocations (arena
// growth) are suppressed per site with //lint:ignore allocfree <reason>.
type AllocFree struct{}

// NewAllocFree returns the check with its default configuration.
func NewAllocFree() *AllocFree { return &AllocFree{} }

func (a *AllocFree) Name() string { return "allocfree" }
func (a *AllocFree) Doc() string {
	return "call chains from //hotpath:allocfree functions must not allocate (make/new/literals, append, string building, boxing, closures, variadic packing, map writes)"
}

// AppliesTo is true everywhere; the analyzer self-scopes through the
// //hotpath:allocfree annotations.
func (a *AllocFree) AppliesTo(pkgPath string) bool { return true }

// Run analyzes a single package (fixture mode).
func (a *AllocFree) Run(pkg *Package) []Finding {
	return a.RunProgram([]*Package{pkg})
}

// RunProgram analyzes all packages together.
func (a *AllocFree) RunProgram(pkgs []*Package) []Finding {
	return a.Analyze(pkgs).Findings
}

// AllocReport is the full analysis result. Beyond the findings it
// records, per file, every line the proof visited — allocation sites and
// the call edges leading to them — plus the body extents of every
// function reachable from a root. The compiler escape-analysis golden
// test cross-checks `go build -gcflags=-m=1` output against these.
type AllocReport struct {
	Findings []Finding
	// ReachableExtents maps file → [startLine, endLine] body ranges of
	// functions reachable from any root.
	ReachableExtents map[string][][2]int
	// ReachableFuncs is the set of those functions by dataflow.FuncID
	// ("pkg/path.Fn", "pkg/path.(T).M"), so a test can require that the
	// proof reaches a kernel wherever its file is.
	ReachableFuncs map[string]bool
	// SiteLines maps file → set of lines carrying a reported allocation
	// site or a call-chain step toward one (inlining attributes callee
	// allocations to call-site lines).
	SiteLines map[string]map[int]bool
}

// Analyze runs the proof and returns findings plus coverage facts.
func (a *AllocFree) Analyze(pkgs []*Package) AllocReport {
	rep := AllocReport{
		ReachableExtents: map[string][][2]int{},
		ReachableFuncs:   map[string]bool{},
		SiteLines:        map[string]map[int]bool{},
	}
	dfp := dataflowPkgs(pkgs)
	eng := dataflow.New(dfp)

	// Roots: annotated declarations, in deterministic order.
	type root struct {
		id string
		fn *dataflow.Func
	}
	var roots []root
	byDecl := map[*ast.FuncDecl]*dataflow.Func{}
	eng.Each(func(f *dataflow.Func) { byDecl[f.Decl] = f })
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !hasHotpathDoc(fd.Doc, "allocfree") {
					continue
				}
				if f := byDecl[fd]; f != nil {
					roots = append(roots, root{id: f.ID, fn: f})
				}
			}
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].id < roots[j].id })

	type facts struct {
		sites []dataflow.AllocSite
		calls []dataflow.AllocCall
	}
	cache := map[string]facts{}
	factsOf := func(f *dataflow.Func) facts {
		if got, ok := cache[f.ID]; ok {
			return got
		}
		sites, calls := eng.AllocFacts(f, allocAllowedCallee)
		got := facts{sites: sites, calls: calls}
		cache[f.ID] = got
		return got
	}

	markLine := func(file string, line int) {
		set := rep.SiteLines[file]
		if set == nil {
			set = map[int]bool{}
			rep.SiteLines[file] = set
		}
		set[line] = true
	}

	seenFinding := map[string]bool{}
	for _, r := range roots {
		visited := map[string]bool{}
		var walk func(f *dataflow.Func, path dataflow.Path)
		walk = func(f *dataflow.Func, path dataflow.Path) {
			if visited[f.ID] {
				return
			}
			visited[f.ID] = true
			rep.ReachableFuncs[f.ID] = true
			if f.Decl.Body != nil {
				start := f.Pkg.Fset.Position(f.Decl.Pos())
				end := f.Pkg.Fset.Position(f.Decl.End())
				rep.ReachableExtents[start.Filename] = append(rep.ReachableExtents[start.Filename], [2]int{start.Line, end.Line})
			}
			fx := factsOf(f)
			for _, site := range fx.sites {
				p := dataflow.ExtendPath(path, dataflow.Step{Pos: site.Pos, Desc: site.Desc})
				key := r.id + "|" + site.Pos.String() + "|" + site.Desc
				if seenFinding[key] {
					continue
				}
				seenFinding[key] = true
				markLine(site.Pos.Filename, site.Pos.Line)
				rep.Findings = append(rep.Findings, Finding{
					Pos:   site.Pos,
					Check: a.Name(),
					Message: fmt.Sprintf("hot path %s is not allocation-free: %s; path: %s",
						dataflow.FuncName(r.fn), site.Desc, p),
					Path: p,
				})
			}
			for _, call := range fx.calls {
				markLine(call.Pos.Filename, call.Pos.Line)
				walk(call.Callee, dataflow.ExtendPath(path, dataflow.Step{Pos: call.Pos, Desc: "calls " + dataflow.FuncName(call.Callee)}))
			}
		}
		rootPos := r.fn.Pkg.Fset.Position(r.fn.Decl.Pos())
		walk(r.fn, dataflow.Path{{Pos: rootPos, Desc: "hot path root " + dataflow.FuncName(r.fn) + " (//hotpath:allocfree)"}})
	}
	SortFindings(rep.Findings)
	for file := range rep.ReachableExtents {
		ext := rep.ReachableExtents[file]
		sort.Slice(ext, func(i, j int) bool { return ext[i][0] < ext[j][0] })
		rep.ReachableExtents[file] = ext
	}
	return rep
}

// allocAllowedCallee is the allowlist of out-of-program callees known
// not to allocate. Deliberately small: anything not listed shows up as
// an opaque-call finding and must either be added here (with the same
// scrutiny as a suppression) or wrapped.
func allocAllowedCallee(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	switch pkg.Path() {
	case "math", "sync/atomic":
		return true
	case "runtime":
		return fn.Name() == "Gosched"
	case "sync":
		return recvNameIn(fn, "Mutex", "RWMutex", "WaitGroup")
	case "time":
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			// Duration/Time arithmetic is value math.
			return recvNameIn(fn, "Duration", "Time")
		}
		switch fn.Name() {
		case "Now", "Since", "Until", "Sleep":
			return true
		}
		return false
	case "math/rand", "math/rand/v2":
		// Methods on an owned *rand.Rand are allocation-free; the
		// top-level convenience functions are banned by determinism
		// anyway.
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			return recvNameIn(fn, "Rand")
		}
		return false
	}
	return false
}

// recvNameIn reports whether fn is a method on one of the named types.
func recvNameIn(fn *types.Func, names ...string) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	for _, n := range names {
		if named.Obj().Name() == n {
			return true
		}
	}
	return false
}
